//! Instruction-fetch line stream.
//!
//! Models a control-flow walk over the benchmark's instruction footprint:
//! sequential runs of cache lines (basic blocks / straight-line code)
//! separated by jumps whose targets favor a hot-code subset. Run length
//! sets how prefetchable the I-stream is; footprint size sets L1I
//! pressure (oltp's huge footprint gives it the paper's highest L1I
//! prefetch rate, 13.5/1k instructions).

use crate::rng::{Geometric, Rng};
use crate::spec::{wrap, Region};

/// Generator of successive instruction-line addresses.
#[derive(Debug, Clone)]
pub struct InstStream {
    region: Region,
    hot_lines: u64,
    hot_fraction: f64,
    /// Run length beyond the first line: continue probability
    /// `1 - 1/run_mean`, so the mean run is `run_mean` lines.
    run: Geometric,
    rng: Rng,
    offset: u64,
    run_left: u64,
}

impl InstStream {
    /// Creates a stream over `region` with the given hot subset and mean
    /// sequential run length (in lines).
    pub fn new(region: Region, hot_lines: u64, hot_fraction: f64, run_mean: f64, rng: Rng) -> Self {
        let mut s = InstStream {
            region,
            hot_lines: hot_lines.max(1),
            hot_fraction,
            run: Geometric::new(1.0 / run_mean.max(1.0)),
            rng,
            offset: 0,
            run_left: 0,
        };
        s.jump();
        s
    }

    fn jump(&mut self) {
        let pool = if self.rng.chance(self.hot_fraction) {
            self.hot_lines
        } else {
            self.region.lines
        };
        self.offset = self.rng.below(pool.max(1));
        self.run_left = 1 + self.run.sample(&mut self.rng);
    }

    /// The line containing the next chunk of instructions; each call
    /// represents the fetch stream crossing into a new line.
    pub fn next_line(&mut self) -> u64 {
        if self.run_left == 0 {
            self.jump();
        }
        let line = self.region.line(self.offset);
        self.offset = wrap(self.offset + 1, self.region.lines);
        self.run_left -= 1;
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(footprint: u64, hot: u64, hf: f64, run: f64) -> InstStream {
        InstStream::new(
            Region { base: 1000, lines: footprint },
            hot,
            hf,
            run,
            Rng::new(42),
        )
    }

    #[test]
    fn lines_stay_in_region() {
        let mut s = stream(128, 16, 0.8, 6.0);
        for _ in 0..10_000 {
            let l = s.next_line();
            assert!((1000..1128).contains(&l));
        }
    }

    #[test]
    fn sequential_runs_exist() {
        let mut s = stream(1 << 16, 1 << 10, 0.5, 8.0);
        let lines: Vec<u64> = (0..10_000).map(|_| s.next_line()).collect();
        let sequential = lines.windows(2).filter(|w| w[1] == w[0] + 1).count();
        // Mean run 8 → ~7/8 of transitions sequential.
        let frac = sequential as f64 / (lines.len() - 1) as f64;
        assert!(frac > 0.75 && frac < 0.95, "sequential fraction {frac}");
    }

    #[test]
    fn hot_subset_dominates() {
        let mut s = stream(1 << 16, 1 << 8, 0.9, 4.0);
        let hot_hits = (0..20_000)
            .filter(|_| {
                let l = s.next_line() - 1000;
                l < (1 << 8) + 8 // hot subset plus run spill-over
            })
            .count();
        assert!(hot_hits as f64 / 20_000.0 > 0.6);
    }

    #[test]
    fn step_matches_the_modulo_formula() {
        use cmpsim_harness::{gen, prop::check, prop_assert_eq};
        let cases = gen::pair(gen::u64s(1..=5000), gen::u64s(..));
        check("inst_step_matches_the_modulo_formula", &cases, |&(lines, raw)| {
            let mut s = stream(lines, 1, 0.5, 4.0);
            // In-range offsets are the generator's invariant; offsets up
            // to three regions out must wrap exactly as `%` did too.
            let offset = raw % (3 * lines);
            s.offset = offset;
            s.run_left = 2;
            prop_assert_eq!(s.next_line(), 1000 + offset % lines);
            prop_assert_eq!(s.offset, (offset + 1) % lines);
            Ok(())
        });
    }

    #[test]
    fn deterministic() {
        let mut a = stream(4096, 512, 0.8, 6.0);
        let mut b = stream(4096, 512, 0.8, 6.0);
        for _ in 0..1000 {
            assert_eq!(a.next_line(), b.next_line());
        }
    }
}
