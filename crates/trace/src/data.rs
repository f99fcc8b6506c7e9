//! Strided data streams.
//!
//! Each stream sweeps `stream_len_lines` lines of the core's stream
//! region at a fixed stride, touching every line `accesses_per_line`
//! times, then re-seeds at a fresh random position with a fresh stride.
//! Long streams make stride prefetching accurate and high-coverage
//! (SPEComp); short streams waste most of the L2's 25-deep startup burst
//! (jbb's 32% L2 accuracy).

use crate::rng::Rng;
use crate::spec::{wrap, Region};

/// One active strided sweep.
#[derive(Debug, Clone)]
pub struct DataStream {
    region: Region,
    len_lines: u64,
    accesses_per_line: u32,
    stride_choices: &'static [i64],
    offset: u64,
    stride: i64,
    lines_left: u64,
    line_accesses_left: u32,
    rng: Rng,
}

impl DataStream {
    /// Creates and seeds a stream.
    pub fn new(
        region: Region,
        len_lines: u64,
        accesses_per_line: u32,
        stride_choices: &'static [i64],
        mut rng: Rng,
    ) -> Self {
        let mut s = DataStream {
            region,
            len_lines: len_lines.max(1),
            accesses_per_line: accesses_per_line.max(1),
            stride_choices,
            offset: 0,
            stride: 1,
            lines_left: 0,
            line_accesses_left: 0,
            rng: rng.fork(0xDA7A),
        };
        s.reseed();
        s
    }

    fn reseed(&mut self) {
        self.offset = self.rng.below(self.region.lines);
        self.stride = *self.rng.pick(self.stride_choices);
        self.lines_left = self.len_lines;
        self.line_accesses_left = self.accesses_per_line;
    }

    /// The line of the next access from this stream.
    pub fn next_line(&mut self) -> u64 {
        if self.lines_left == 0 {
            self.reseed();
        }
        let line = self.region.line(self.offset);
        self.line_accesses_left -= 1;
        if self.line_accesses_left == 0 {
            self.line_accesses_left = self.accesses_per_line;
            // A negative stride wraps the u64 sum past zero; that lands
            // at or above `lines`, where `wrap` takes the `%` path.
            self.offset =
                wrap(self.offset.wrapping_add(self.stride as u64), self.region.lines.max(1));
            self.lines_left -= 1;
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Region {
        Region { base: 10_000, lines: 1 << 16 }
    }

    #[test]
    fn unit_stride_sweep_touches_consecutive_lines() {
        const STRIDES: &[i64] = &[1];
        let mut s = DataStream::new(region(), 1000, 1, STRIDES, Rng::new(1));
        let lines: Vec<u64> = (0..100).map(|_| s.next_line()).collect();
        for w in lines.windows(2) {
            assert!(w[1] == w[0] + 1 || w[1] == region().base, "wrap or +1");
        }
    }

    #[test]
    fn accesses_per_line_repeat() {
        const STRIDES: &[i64] = &[1];
        let mut s = DataStream::new(region(), 1000, 4, STRIDES, Rng::new(2));
        let lines: Vec<u64> = (0..16).map(|_| s.next_line()).collect();
        for chunk in lines.chunks(4) {
            assert!(chunk.iter().all(|l| *l == chunk[0]), "4 touches per line");
        }
        assert_eq!(lines[4], lines[0] + 1);
    }

    #[test]
    fn reseed_after_len() {
        const STRIDES: &[i64] = &[1];
        let mut s = DataStream::new(region(), 8, 1, STRIDES, Rng::new(3));
        let first: Vec<u64> = (0..8).map(|_| s.next_line()).collect();
        let ninth = s.next_line();
        // After 8 lines the stream re-seeds; overwhelmingly likely to be
        // discontinuous with the previous sweep.
        assert_ne!(ninth, first[7] + 1);
    }

    #[test]
    fn negative_strides_stay_in_region() {
        const STRIDES: &[i64] = &[-1, -4];
        let mut s = DataStream::new(region(), 100, 1, STRIDES, Rng::new(4));
        for _ in 0..10_000 {
            let l = s.next_line();
            assert!(region().contains(l), "line {l} outside region");
        }
    }

    #[test]
    fn step_matches_the_modulo_formula() {
        // Small regions and strides up to twice their size, so negative
        // strides cross zero (and positive ones the top) on most cases.
        use cmpsim_harness::{gen, prop::check, prop_assert_eq};
        let cases = gen::triple(gen::u64s(1..=5000), gen::u64s(..), gen::i64s(-10_000..=10_000));
        check("data_step_matches_the_modulo_formula", &cases, |&(lines, raw, stride)| {
            const STRIDES: &[i64] = &[1];
            let region = Region { base: 7, lines };
            let mut s = DataStream::new(region, 1000, 1, STRIDES, Rng::new(1));
            let offset = raw % lines;
            s.offset = offset;
            s.stride = stride;
            s.lines_left = 2;
            s.line_accesses_left = 1;
            prop_assert_eq!(s.next_line(), 7 + offset % lines);
            prop_assert_eq!(s.offset, offset.wrapping_add(stride as u64).rem_euclid(lines));
            Ok(())
        });
    }

    #[test]
    fn deterministic() {
        const STRIDES: &[i64] = &[1, 2];
        let mut a = DataStream::new(region(), 64, 2, STRIDES, Rng::new(9));
        let mut b = DataStream::new(region(), 64, 2, STRIDES, Rng::new(9));
        for _ in 0..1000 {
            assert_eq!(a.next_line(), b.next_line());
        }
    }
}
