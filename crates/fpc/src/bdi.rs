//! Base-delta-immediate (BDI) compression for 64-byte cache lines.
//!
//! BDI (Pekhimenko et al., *Base-Delta-Immediate Compression: Practical
//! Data Compression for On-Chip Caches*, PACT 2012) observes that the
//! values in a cache line often cluster in a narrow range: the line can
//! then be stored as one full-width *base* plus a short *delta* per
//! element, with a second implicit base of zero (the "immediate" part)
//! covering small values and zeros in the same line.
//!
//! This implementation keeps the first configuration below, in order of
//! encoded size, that fits the line. Element width `k` ∈ {8, 4, 2}
//! bytes, delta width `d` < `k`; encoded size is `k + (64/k)·d` bytes
//! (the per-element immediate mask lives in the tag metadata, as in the
//! paper, and is not charged against the data space):
//!
//! | class    | size (B) | segments |
//! |----------|----------|----------|
//! | zeros    | 1        | 1        |
//! | (2, 0)   | 2        | 1        |
//! | (4, 0)   | 4        | 1        |
//! | (8, 0)   | 8        | 1        |
//! | (8, 1)   | 16       | 2        |
//! | (4, 1)   | 20       | 3        |
//! | (8, 2)   | 24       | 3        |
//! | (2, 1)   | 34       | 5        |
//! | (4, 2)   | 36       | 5        |
//! | (8, 4)   | 40       | 5        |
//! | raw      | 64       | 8        |
//!
//! The `d = 0` rows are the degenerate "every element equals the base or
//! zero" classes; `(8, 0)` subsumes the paper's repeated-value class.
//!
//! Two deliberate choices versus the PACT'12 hardware description:
//!
//! 1. **The base is the minimum non-immediate element**, not the first
//!    element, and deltas are unsigned `d`-byte offsets from it. A
//!    configuration fits iff `max − min < 2^(8d)` over the non-immediate
//!    elements — the widest usable window, and it makes compressed size
//!    *monotone under zero-filling*: zeroing an element only ever removes
//!    a constraint (the element moves to the zero base), so no feasible
//!    configuration becomes infeasible. First-element basing lacks this
//!    property (zeroing the base element can re-anchor the deltas and
//!    grow the encoding), which would break the cross-codec conformance
//!    kit's zero-fill monotonicity law.
//! 2. An element is immediate iff its value is below `2^(8d)` (an
//!    unsigned `d`-byte offset from the zero base), mirroring choice 1.
//!
//! Like the hardware, which tests every configuration at once, sizing
//! and compressing share one fit over the line: it is read once as 32
//! `u16`, 16 `u32` and 8 `u64` little-endian lanes, each width's maximum
//! lane is taken once, and a configuration fits iff each of its lanes is
//! immediate or lies less than `2^(8d)` below that maximum (the
//! maximum is itself non-immediate whenever any lane is). Compressing
//! builds the deltas from the same lanes into a fixed-size [`BdiLine`],
//! so neither path allocates.

use crate::codec::{Codec, CompressedRepr};
use crate::segment::{bits_to_segments, LINE_BYTES, MAX_SEGMENTS};
use std::ops::{Shl, Sub};

/// `(element_bytes, delta_bytes)` configurations in increasing encoded
/// size: `k + (64/k)·d` bytes.
const CONFIGS: [(u8, u8); 9] =
    [(2, 0), (4, 0), (8, 0), (8, 1), (4, 1), (8, 2), (2, 1), (4, 2), (8, 4)];

/// Elements in a line at the narrowest width (2 bytes), and so the length
/// of [`BdiLine::BaseDelta`]'s delta array.
const MAX_ELEMENTS: usize = LINE_BYTES / 2;

/// Encoded size in bytes of configuration `(k, d)`.
fn config_bytes(k: u8, d: u8) -> u32 {
    u32::from(k) + (LINE_BYTES as u32 / u32::from(k)) * u32::from(d)
}

/// An unsigned little-endian lane of a line: `u16`, `u32` or `u64`.
trait Lane: Copy + Ord + Into<u64> + From<u8> + Shl<u32, Output = Self> + Sub<Output = Self> {
    fn from_le(bytes: &[u8]) -> Self;
}

macro_rules! lanes {
    ($($t:ty),*) => {$(
        impl Lane for $t {
            fn from_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("one lane's bytes"))
            }
        }
    )*};
}

lanes!(u16, u32, u64);

/// A line read as `N` lanes of one element width, with their maximum.
struct Width<T, const N: usize> {
    lanes: [T; N],
    max: T,
}

impl<T: Lane, const N: usize> Width<T, N> {
    fn read(line: &[u8; LINE_BYTES]) -> Self {
        let mut lanes = [T::from(0); N];
        for (v, bytes) in lanes.iter_mut().zip(line.chunks_exact(LINE_BYTES / N)) {
            *v = T::from_le(bytes);
        }
        let max = lanes.iter().copied().fold(T::from(0), T::max);
        Width { lanes, max }
    }

    /// The window of delta width `d`: an unsigned `d`-byte offset covers
    /// `0..2^(8d)`. `d` is narrower than the lane, so this fits in it.
    fn window(d: u8) -> T {
        T::from(1) << (8 * u32::from(d))
    }

    /// Whether delta width `d` fits these lanes.
    ///
    /// A lane below the window is immediate (an offset from the zero
    /// base); every other lane is at least the window. So if any lane is
    /// not immediate, the maximum is one of them and the largest, and
    /// the configuration fits iff every non-immediate lane lies less than
    /// a window below the maximum. If every lane is immediate, each
    /// passes the first test.
    fn fits(&self, d: u8) -> bool {
        let window = Self::window(d);
        // Folded without short-circuiting, so it compiles to straight-line
        // code over the lanes.
        self.lanes.iter().fold(true, |ok, &v| ok & ((v < window) | (self.max - v < window)))
    }

    /// The base of delta width `d`: the minimum non-immediate lane, or 0
    /// if every lane is immediate.
    fn base(&self, d: u8) -> u64 {
        let window = Self::window(d);
        self.lanes.iter().copied().filter(|&v| v >= window).min().map_or(0, Into::into)
    }

    /// The immediate mask and deltas of these lanes under a fitting
    /// delta width `d` and its base. Entries past the lanes stay zero.
    fn encode(&self, d: u8, base: u64) -> (u32, [u32; MAX_ELEMENTS]) {
        let window = Self::window(d);
        let mut immediate = 0u32;
        let mut deltas = [0u32; MAX_ELEMENTS];
        for (i, (&v, delta)) in self.lanes.iter().zip(&mut deltas).enumerate() {
            let offset = if v < window {
                immediate |= 1 << i;
                v.into()
            } else {
                v.into() - base
            };
            *delta = u32::try_from(offset).expect("an offset is below its window, at most 2^32");
        }
        (immediate, deltas)
    }
}

/// A line read once as little-endian lanes at each element width.
struct Lanes {
    w2: Width<u16, { LINE_BYTES / 2 }>,
    w4: Width<u32, { LINE_BYTES / 4 }>,
    w8: Width<u64, { LINE_BYTES / 8 }>,
}

impl Lanes {
    fn read(line: &[u8; LINE_BYTES]) -> Self {
        Lanes { w2: Width::read(line), w4: Width::read(line), w8: Width::read(line) }
    }

    /// The winning configuration, `Some((k, d, base))`, or `None` for the
    /// raw fallback: the first of [`CONFIGS`] that fits. As in hardware,
    /// every configuration is tested, with no early exit.
    fn fit(&self) -> Option<(u8, u8, u64)> {
        // Bit i set: `CONFIGS[i]` fits.
        let mut fits = 0u16;
        for (i, (k, d)) in CONFIGS.into_iter().enumerate() {
            let fit = match k {
                2 => self.w2.fits(d),
                4 => self.w4.fits(d),
                _ => self.w8.fits(d),
            };
            fits |= u16::from(fit) << i;
        }
        // Past the end (16) when nothing fits.
        let &(k, d) = CONFIGS.get(fits.trailing_zeros() as usize)?;
        let base = match k {
            2 => self.w2.base(d),
            4 => self.w4.base(d),
            _ => self.w8.base(d),
        };
        Some((k, d, base))
    }
}

/// A BDI-compressed line: a fixed-size value, so compressing a line
/// allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BdiLine {
    /// All 64 bytes zero: encoded in a single tag-borne byte.
    Zeros,
    /// Base plus per-element unsigned deltas; elements flagged in
    /// `immediate` take their delta from the implicit zero base instead.
    BaseDelta {
        /// Element width in bytes (8, 4, or 2).
        elem_bytes: u8,
        /// Delta width in bytes (< `elem_bytes`; 0 means every element
        /// equals the base or zero exactly).
        delta_bytes: u8,
        /// The stored full-width base (minimum non-immediate element).
        base: u64,
        /// Bit `i` set: element `i`'s delta is an offset from zero.
        immediate: u32,
        /// Per-element unsigned deltas: the first `64 / elem_bytes`
        /// entries, each below `2^(8·delta_bytes)` (at most `2^32`); the
        /// rest are zero.
        deltas: [u32; MAX_ELEMENTS],
    },
    /// No configuration fit: stored raw.
    Uncompressed([u8; LINE_BYTES]),
}

impl BdiLine {
    /// Encoded size in bytes (before segment rounding).
    pub fn size_bytes(&self) -> u32 {
        match self {
            BdiLine::Zeros => 1,
            BdiLine::BaseDelta { elem_bytes, delta_bytes, .. } => {
                config_bytes(*elem_bytes, *delta_bytes)
            }
            BdiLine::Uncompressed(_) => LINE_BYTES as u32,
        }
    }
}

impl CompressedRepr for BdiLine {
    fn segments(&self) -> u8 {
        bits_to_segments(self.size_bytes() * 8)
    }

    fn decompress(&self) -> [u8; LINE_BYTES] {
        match self {
            BdiLine::Zeros => [0u8; LINE_BYTES],
            BdiLine::BaseDelta { elem_bytes, base, immediate, deltas, .. } => {
                let mut out = [0u8; LINE_BYTES];
                // Monomorphize on the element width so each variant's
                // shifts and masks are compile-time constants.
                match elem_bytes {
                    2 => expand_elements::<2>(*base, *immediate, deltas, &mut out),
                    4 => expand_elements::<4>(*base, *immediate, deltas, &mut out),
                    _ => expand_elements::<8>(*base, *immediate, deltas, &mut out),
                }
                out
            }
            BdiLine::Uncompressed(raw) => *raw,
        }
    }

    fn decompress_reference(&self) -> [u8; LINE_BYTES] {
        match self {
            BdiLine::Zeros => [0u8; LINE_BYTES],
            BdiLine::BaseDelta { elem_bytes, base, immediate, deltas, .. } => {
                // The scalar oracle: per-element base select via branch,
                // per-element narrow byte copy.
                let k = usize::from(*elem_bytes);
                let mut out = [0u8; LINE_BYTES];
                for (i, delta) in deltas[..LINE_BYTES / k].iter().enumerate() {
                    let from = if immediate & (1 << i) != 0 { 0 } else { *base };
                    let v = from.wrapping_add(u64::from(*delta));
                    out[i * k..i * k + k].copy_from_slice(&v.to_le_bytes()[..k]);
                }
                out
            }
            BdiLine::Uncompressed(raw) => *raw,
        }
    }
}

/// SWAR reconstruction of a base-delta payload, monomorphized per element
/// width `K`: for each element the stored base is selected branchlessly
/// against the implicit zero base (an all-ones/all-zeros mask derived from
/// the immediate bit), the unsigned delta is added at full width, and
/// `8 / K` reconstructed elements are packed into each output `u64` so the
/// line goes out as eight 64-bit stores regardless of element width.
fn expand_elements<const K: usize>(
    base: u64,
    immediate: u32,
    deltas: &[u32; MAX_ELEMENTS],
    out: &mut [u8; LINE_BYTES],
) {
    let per_store = 8 / K;
    let elem_mask: u64 = if K == 8 { u64::MAX } else { (1u64 << (8 * K)) - 1 };
    for (g, chunk) in out.chunks_exact_mut(8).enumerate() {
        let mut packed = 0u64;
        for e in 0..per_store {
            let i = g * per_store + e;
            // All-zeros when bit i flags an immediate (zero-base) element,
            // all-ones when the element reconstructs from the stored base.
            let keep = u64::from(immediate >> i & 1).wrapping_sub(1);
            let v = (base & keep).wrapping_add(u64::from(deltas[i])) & elem_mask;
            packed |= v << (8 * K * e);
        }
        chunk.copy_from_slice(&packed.to_le_bytes());
    }
}

/// The base-delta-immediate codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bdi;

impl Codec for Bdi {
    type Compressed = BdiLine;

    const NAME: &'static str = "bdi";

    fn compress(line: &[u8; LINE_BYTES]) -> BdiLine {
        if line.iter().all(|&b| b == 0) {
            return BdiLine::Zeros;
        }
        let lanes = Lanes::read(line);
        let Some((k, d, base)) = lanes.fit() else {
            return BdiLine::Uncompressed(*line);
        };
        let (immediate, deltas) = match k {
            2 => lanes.w2.encode(d, base),
            4 => lanes.w4.encode(d, base),
            _ => lanes.w8.encode(d, base),
        };
        BdiLine::BaseDelta { elem_bytes: k, delta_bytes: d, base, immediate, deltas }
    }

    fn segments(line: &[u8; LINE_BYTES]) -> u8 {
        if line.iter().all(|&b| b == 0) {
            return 1;
        }
        match Lanes::read(line).fit() {
            Some((k, d, _)) => bits_to_segments(config_bytes(k, d) * 8),
            None => MAX_SEGMENTS,
        }
    }

    fn decompression_latency(_base: u64) -> u64 {
        // One wide vector add over the deltas (PACT'12 §4: decompression
        // in a single cycle).
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_harness::{prop::check, prop_assert_eq, Gen, Rng};

    /// Reads element `i` of the line at `k`-byte granularity
    /// (little-endian, zero-extended to u64).
    fn element(line: &[u8; LINE_BYTES], k: u8, i: usize) -> u64 {
        let k = usize::from(k);
        let mut v = [0u8; 8];
        v[..k].copy_from_slice(&line[i * k..i * k + k]);
        u64::from_le_bytes(v)
    }

    /// Whether configuration `(k, d)` can encode the line, and if so the
    /// base (minimum non-immediate element; 0 if all elements are
    /// immediate).
    fn config_fits(line: &[u8; LINE_BYTES], k: u8, d: u8) -> Option<u64> {
        // Offsets are unsigned d-byte values: an element is coverable from
        // a base `b` iff `v - b < 2^(8d)`; the zero base covers `v < 2^(8d)`.
        let window = 1u128 << (8 * u32::from(d));
        let n = LINE_BYTES / usize::from(k);
        let mut min: Option<u64> = None;
        let mut max: Option<u64> = None;
        for i in 0..n {
            let v = element(line, k, i);
            if u128::from(v) < window {
                continue; // immediate: delta from the zero base
            }
            min = Some(min.map_or(v, |m| m.min(v)));
            max = Some(max.map_or(v, |m| m.max(v)));
        }
        match (min, max) {
            (None, None) => Some(0),
            (Some(lo), Some(hi)) if u128::from(hi - lo) < window => Some(lo),
            _ => None,
        }
    }

    /// The scan the one-pass fit replaced, kept as its oracle: every
    /// configuration rescans the line element by element.
    fn best_config_reference(line: &[u8; LINE_BYTES]) -> Option<(u8, u8, u64)> {
        CONFIGS.iter().find_map(|&(k, d)| config_fits(line, k, d).map(|base| (k, d, base)))
    }

    /// The compressed line as the replaced code built it: the reference's
    /// configuration, with each element re-read for its immediate bit and
    /// delta.
    fn reference_line(line: &[u8; LINE_BYTES]) -> BdiLine {
        if line.iter().all(|&b| b == 0) {
            return BdiLine::Zeros;
        }
        let Some((k, d, base)) = best_config_reference(line) else {
            return BdiLine::Uncompressed(*line);
        };
        let window = 1u128 << (8 * u32::from(d));
        let mut immediate = 0u32;
        let mut deltas = [0u32; MAX_ELEMENTS];
        for (i, delta) in deltas.iter_mut().enumerate().take(LINE_BYTES / usize::from(k)) {
            let v = element(line, k, i);
            let offset = if u128::from(v) < window {
                immediate |= 1 << i;
                v
            } else {
                v - base
            };
            *delta = u32::try_from(offset).expect("a reference offset fits 4 bytes");
        }
        BdiLine::BaseDelta { elem_bytes: k, delta_bytes: d, base, immediate, deltas }
    }

    fn line_of_u64s(vals: [u64; 8]) -> [u8; LINE_BYTES] {
        let mut out = [0u8; LINE_BYTES];
        for (i, v) in vals.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// A line of `k`-byte elements, each `base` except element 1.
    fn line_with(k: u8, base: u64, element_1: u64) -> [u8; LINE_BYTES] {
        let k = usize::from(k);
        let mut out = [0u8; LINE_BYTES];
        for (i, chunk) in out.chunks_exact_mut(k).enumerate() {
            let v = if i == 1 { element_1 } else { base };
            chunk.copy_from_slice(&v.to_le_bytes()[..k]);
        }
        out
    }

    fn roundtrip(line: &[u8; LINE_BYTES]) -> u8 {
        let c = Bdi::compress(line);
        assert_eq!(c.decompress(), *line, "lossless");
        assert_eq!(c.segments(), Bdi::segments(line), "fast path agrees");
        if let BdiLine::BaseDelta { elem_bytes, delta_bytes, deltas, .. } = &c {
            // A delta is stored in `delta_bytes` bytes: one that needs more
            // means the configuration was chosen wrongly, even though the
            // u32 held here may still round-trip.
            let window = 1u64 << (8 * u32::from(*delta_bytes));
            assert!(
                deltas.iter().all(|&d| u64::from(d) < window),
                "a delta wider than {delta_bytes} B: {c:?}"
            );
            let n = LINE_BYTES / usize::from(*elem_bytes);
            assert!(deltas[n..].iter().all(|&d| d == 0), "unused deltas are zero: {c:?}");
        }
        c.segments()
    }

    /// `(k, d, base, immediate)` of a base-delta line.
    fn params(c: &BdiLine) -> Option<(u8, u8, u64, u32)> {
        match *c {
            BdiLine::BaseDelta { elem_bytes, delta_bytes, base, immediate, .. } => {
                Some((elem_bytes, delta_bytes, base, immediate))
            }
            _ => None,
        }
    }

    #[test]
    fn zero_line_is_one_segment() {
        assert_eq!(roundtrip(&[0u8; LINE_BYTES]), 1);
        assert_eq!(Bdi::compress(&[0u8; LINE_BYTES]), BdiLine::Zeros);
    }

    #[test]
    fn repeated_value_is_one_segment() {
        // (8, 0): every element equals the base.
        let line = line_of_u64s([0xDEAD_BEEF_1234_5678; 8]);
        assert_eq!(roundtrip(&line), 1);
    }

    #[test]
    fn repeated_value_with_zeros_stays_one_segment() {
        // (8, 0) with the zero base covering the holes.
        let mut vals = [0xDEAD_BEEF_1234_5678u64; 8];
        vals[2] = 0;
        vals[5] = 0;
        assert_eq!(roundtrip(&line_of_u64s(vals)), 1);
    }

    #[test]
    fn clustered_u64s_take_two_segments() {
        // (8, 1): heap pointers within a 256-byte window.
        let base = 0x7FFF_AB00_0000_1000u64;
        let vals = [base, base + 8, base + 16, base + 255, base + 32, base, base + 64, base + 128];
        assert_eq!(roundtrip(&line_of_u64s(vals)), 2);
    }

    #[test]
    fn small_ints_compress_via_narrow_elements() {
        // 16 u32 elements, all small: (4, 1) at worst.
        let mut line = [0u8; LINE_BYTES];
        for (i, chunk) in line.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&(40 + i as u32).to_le_bytes());
        }
        assert!(roundtrip(&line) <= 3);
    }

    #[test]
    fn high_entropy_is_uncompressed() {
        let mut line = [0u8; LINE_BYTES];
        let mut state = 0x9e3779b97f4a7c15u64;
        for b in line.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (state >> 33) as u8 | 0x80;
        }
        assert_eq!(roundtrip(&line), MAX_SEGMENTS);
        assert!(matches!(Bdi::compress(&line), BdiLine::Uncompressed(_)));
    }

    #[test]
    fn zero_filling_never_grows_the_encoding() {
        // The documented monotonicity law, on a line engineered to
        // re-anchor its base when elements vanish.
        let base = 0x10_0000u64;
        let mut vals = [base, base + 200, base + 100, 3, base + 50, 0, base + 255, base + 7];
        let mut prev = Bdi::segments(&line_of_u64s(vals));
        for i in 0..8 {
            vals[i] = 0;
            let now = roundtrip(&line_of_u64s(vals));
            assert!(now <= prev, "zeroing element {i} grew {prev} -> {now}");
            prev = now;
        }
        assert_eq!(prev, 1);
    }

    #[test]
    fn every_config_fits_exactly_up_to_its_window_edge() {
        for &(k, d) in &CONFIGS {
            // Non-immediate at every delta width, with lanes spread at the
            // narrower widths, so no earlier configuration fits these lines.
            let base = match k {
                2 => 0x4000,
                4 => 0x4000_3000,
                _ => 0x4000_3000_2000_1000,
            };
            let w = 1u64 << (8 * u32::from(d));
            let size = config_bytes(k, d);
            let at = |e1: u64| {
                let line = line_with(k, base, e1);
                roundtrip(&line);
                Bdi::compress(&line)
            };
            // max − min = W − 1 fits; W does not.
            assert_eq!(params(&at(base + w - 1)), Some((k, d, base, 0)), "({k}, {d}): W - 1");
            assert!(at(base + w).size_bytes() > size, "({k}, {d}): spread W must not fit");
            // An element equal to W − 1 is immediate; one equal to W is not.
            assert_eq!(params(&at(w - 1)), Some((k, d, base, 0b10)), "({k}, {d}): element W - 1");
            assert!(at(w).size_bytes() > size, "({k}, {d}): element W is not immediate");
        }
    }

    /// A line of 32-bit words, word `i` being `f(i, <random u64>)`.
    fn words(rng: &mut Rng, f: impl Fn(usize, u64) -> u32) -> [u8; LINE_BYTES] {
        let mut out = [0u8; LINE_BYTES];
        for (i, chunk) in out.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&f(i, rng.next_u64()).to_le_bytes());
        }
        out
    }

    /// A line of one of the six classes the codec gate measures: zero,
    /// small integers, pointers below 4 GiB, sparse and dense floating
    /// point, high-entropy words.
    fn class_line(rng: &mut Rng) -> [u8; LINE_BYTES] {
        let fp = |permille: u64| {
            move |_, h: u64| if h % 1000 < permille { 0 } else { (h >> 16) as u32 | 0x0010_0000 }
        };
        match rng.below(6) {
            0 => [0; LINE_BYTES],
            1 => words(rng, |_, h| {
                // Values in [-64, 191], a fifth of them zero.
                if h % 5 == 0 {
                    0
                } else {
                    (((h >> 8) % 256) as u32).wrapping_sub(64)
                }
            }),
            2 => {
                let mut vals = [0u64; 8];
                vals.iter_mut().for_each(|v| *v = rng.next_u64() & 0xFFFF_FFF8);
                line_of_u64s(vals)
            }
            3 => words(rng, fp(400)),
            4 => words(rng, fp(0)),
            _ => words(rng, |i, h| (h >> 8) as u32 | 0x8080_0000 | (i as u32) << 1),
        }
    }

    /// A line on the window edges of a random configuration `(k, d)`:
    /// a base (0, W, or random) plus offsets from a random subset of
    /// {0, 1, W − 1, W, W + 1}, with up to two elements then set to 0,
    /// W − 1, W or the width's maximum.
    fn edge_line(rng: &mut Rng) -> [u8; LINE_BYTES] {
        let (k, d) = CONFIGS[rng.below(CONFIGS.len() as u64) as usize];
        let k = usize::from(k);
        let w = 1u64 << (8 * u32::from(d));
        let width_max = u64::MAX >> (64 - 8 * k);
        let base = [0, w, rng.next_u64() & width_max][rng.below(3) as usize];
        let subset: Vec<u64> =
            [0, 1, w - 1, w, w + 1].into_iter().filter(|_| rng.chance(0.5)).collect();
        let offsets = if subset.is_empty() { vec![w] } else { subset };
        let mut vals = [0u64; MAX_ELEMENTS];
        for v in vals.iter_mut() {
            *v = base.wrapping_add(offsets[rng.below(offsets.len() as u64) as usize]) & width_max;
        }
        for _ in 0..rng.below(3) {
            let specials = [0, w - 1, w, width_max];
            vals[rng.below((LINE_BYTES / k) as u64) as usize] = specials[rng.below(4) as usize];
        }
        let mut out = [0u8; LINE_BYTES];
        for (chunk, v) in out.chunks_exact_mut(k).zip(vals) {
            chunk.copy_from_slice(&v.to_le_bytes()[..k]);
        }
        out
    }

    #[test]
    fn one_pass_fit_matches_the_reference_scan() {
        let lines = Gen::new(
            |rng: &mut Rng| match rng.below(4) {
                0 => {
                    let mut line = [0u8; LINE_BYTES];
                    line.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                    line
                }
                1 => class_line(rng),
                _ => edge_line(rng),
            },
            // Shrinks by zeroing one 8-byte chunk at a time.
            |line: &[u8; LINE_BYTES]| {
                (0..LINE_BYTES / 8)
                    .filter(|c| line[c * 8..c * 8 + 8] != [0; 8])
                    .map(|c| {
                        let mut out = *line;
                        out[c * 8..c * 8 + 8].fill(0);
                        out
                    })
                    .collect()
            },
        );
        check("bdi one-pass fit equals the reference scan", &lines, |line| {
            prop_assert_eq!(Lanes::read(line).fit(), best_config_reference(line));
            prop_assert_eq!(Bdi::compress(line), reference_line(line));
            Ok(())
        });
    }

    #[test]
    fn config_order_is_by_size() {
        let mut sizes: Vec<u32> = CONFIGS.iter().map(|&(k, d)| config_bytes(k, d)).collect();
        let sorted = { let mut s = sizes.clone(); s.sort_unstable(); s };
        assert_eq!(sizes, sorted);
        sizes.dedup();
        assert_eq!(sizes.len(), CONFIGS.len(), "no duplicate sizes");
    }
}
