//! Per-benchmark line-content models controlling FPC compressibility.
//!
//! §4.2 of the paper explains the compressibility landscape: commercial
//! workloads are rich in zeros, small integers and pointers (ratios up to
//! 1.8), while SPEComp's floating-point data barely compresses (1.01–1.19)
//! — "most of the benefit for floating-point applications comes from
//! compressing zeros". Each [`LineClass`] below synthesizes 64 bytes with
//! the corresponding statistics; a [`ValueProfile`] is a weighted mix of
//! classes assigned per line address (stationary, deterministic).

use crate::rng::hash64;
use cmpsim_fpc::{compressed_segments, CodecKind, LINE_BYTES};

/// The kind of data a cache line holds, driving its FPC size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LineClass {
    /// All zeros (freshly allocated pages, cleared buffers): 1 segment.
    Zero,
    /// Small signed integers (counters, lengths, enum fields): ~3 segments.
    SmallInt,
    /// 64-bit heap pointers with zero high words: ~5 segments.
    Pointer,
    /// Floating-point data with a given probability (per mille) of zero
    /// words; mostly incompressible mantissa bits: 7–8 segments.
    Fp {
        /// Probability (0..=1000, per mille) that a 32-bit word is zero.
        zero_word_permille: u16,
    },
    /// High-entropy bytes (ciphertext, compressed media, hashes): 8
    /// segments.
    Random,
}

impl LineClass {
    /// Fills a 64-byte line for this class, deterministically derived
    /// from `(addr_hash)` so repeated reads of a line agree.
    pub fn fill(self, addr_hash: u64, out: &mut [u8; LINE_BYTES]) {
        match self {
            LineClass::Zero => out.fill(0),
            LineClass::SmallInt => {
                for (i, chunk) in out.chunks_exact_mut(4).enumerate() {
                    let h = hash64(addr_hash, i as u64);
                    // Values in [-64, 191]: Signed8 territory with
                    // occasional zeros.
                    let v = if h.is_multiple_of(5) { 0i32 } else { ((h >> 8) % 256) as i32 - 64 };
                    chunk.copy_from_slice(&(v as u32).to_le_bytes());
                }
            }
            LineClass::Pointer => {
                for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
                    let h = hash64(addr_hash, 0x1000 + i as u64);
                    // Heap pointers below 4 GB, 8-byte aligned: the high
                    // word is zero (FPC zero-run), the low word is mostly
                    // entropy.
                    let ptr: u64 = h & 0xFFFF_FFF8;
                    chunk.copy_from_slice(&ptr.to_le_bytes());
                }
            }
            LineClass::Fp { zero_word_permille } => {
                for (i, chunk) in out.chunks_exact_mut(4).enumerate() {
                    let h = hash64(addr_hash, 0x2000 + i as u64);
                    let w: u32 = if h % 1000 < u64::from(zero_word_permille) {
                        0
                    } else {
                        // Mantissa/exponent bits: high entropy, non-zero.
                        ((h >> 16) as u32) | 0x0010_0000
                    };
                    chunk.copy_from_slice(&w.to_le_bytes());
                }
            }
            LineClass::Random => {
                for (i, chunk) in out.chunks_exact_mut(4).enumerate() {
                    let h = hash64(addr_hash, 0x3000 + i as u64);
                    // Force incompressibility: high bits set, bytes differ.
                    let w = ((h >> 8) as u32) | 0x8080_0000 | (i as u32) << 1;
                    chunk.copy_from_slice(&w.to_le_bytes());
                }
            }
        }
    }
}

/// A weighted mixture of [`LineClass`]es assigned per line address.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueProfile {
    classes: Vec<(LineClass, f64)>,
    seed: u64,
}

impl ValueProfile {
    /// Builds a profile from `(class, weight)` pairs. Weights are
    /// normalized internally.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or the total weight is non-positive.
    pub fn new(classes: &[(LineClass, f64)], seed: u64) -> Self {
        assert!(!classes.is_empty(), "profile needs at least one class");
        let total: f64 = classes.iter().map(|(_, w)| *w).sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut acc = 0.0;
        let classes = classes
            .iter()
            .map(|(c, w)| {
                acc += *w / total;
                (*c, acc)
            })
            .collect();
        ValueProfile { classes, seed }
    }

    /// The class assigned to a line (stationary per address).
    pub fn class_of(&self, line_number: u64) -> LineClass {
        let u = hash64(line_number, self.seed) as f64 / u64::MAX as f64;
        for (c, cum) in &self.classes {
            if u <= *cum {
                return *c;
            }
        }
        self.classes.last().expect("non-empty").0
    }

    /// Deterministic 64-byte contents of a line.
    pub fn line_bytes(&self, line_number: u64) -> [u8; LINE_BYTES] {
        let mut out = [0u8; LINE_BYTES];
        let h = hash64(line_number, self.seed ^ 0xABCD);
        self.class_of(line_number).fill(h, &mut out);
        out
    }

    /// FPC segment count of the line's contents (1..=8).
    pub fn segments_of(&self, line_number: u64) -> u8 {
        compressed_segments(&self.line_bytes(line_number))
    }

    /// Segment count of the line's contents under `codec`. The engine
    /// resolves [`CodecKind::segments_fn`] once instead and sizes
    /// [`line_bytes`](Self::line_bytes) directly; this is the convenient
    /// form for tables and calibration tools.
    pub fn segments_with(&self, line_number: u64, codec: CodecKind) -> u8 {
        (codec.segments_fn())(&self.line_bytes(line_number))
    }

    /// Monte-Carlo estimate of the effective-capacity compression ratio
    /// (`8 / mean segments`, capped at 2.0 by the VSC's 8-tags-per-4-lines
    /// structure), for calibration against Table 3.
    pub fn expected_ratio(&self, samples: u64) -> f64 {
        self.expected_ratio_with(CodecKind::Fpc, samples)
    }

    /// [`expected_ratio`](Self::expected_ratio) under an arbitrary codec,
    /// for the codec × workload comparison table.
    pub fn expected_ratio_with(&self, codec: CodecKind, samples: u64) -> f64 {
        let sizer = codec.segments_fn();
        let total: u64 = (0..samples)
            .map(|i| u64::from(sizer(&self.line_bytes(i * 977))))
            .sum();
        let mean = total as f64 / samples as f64;
        (8.0 / mean).min(2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_sizes_are_as_documented() {
        let mut buf = [0u8; LINE_BYTES];
        LineClass::Zero.fill(1, &mut buf);
        assert_eq!(compressed_segments(&buf), 1);

        LineClass::SmallInt.fill(1, &mut buf);
        assert!(compressed_segments(&buf) <= 3);

        LineClass::Pointer.fill(1, &mut buf);
        let p = compressed_segments(&buf);
        assert!((4..=6).contains(&p), "pointer line got {p} segments");

        LineClass::Random.fill(1, &mut buf);
        assert_eq!(compressed_segments(&buf), 8);

        LineClass::Fp { zero_word_permille: 0 }.fill(1, &mut buf);
        assert_eq!(compressed_segments(&buf), 8);
    }

    #[test]
    fn fp_zeros_increase_compressibility() {
        let dense = ValueProfile::new(&[(LineClass::Fp { zero_word_permille: 0 }, 1.0)], 1);
        let sparse =
            ValueProfile::new(&[(LineClass::Fp { zero_word_permille: 400 }, 1.0)], 1);
        assert!(sparse.expected_ratio(2000) > dense.expected_ratio(2000));
    }

    #[test]
    fn contents_are_stationary() {
        let p = ValueProfile::new(&[(LineClass::SmallInt, 1.0)], 7);
        assert_eq!(p.line_bytes(123), p.line_bytes(123));
        assert_ne!(p.line_bytes(123), p.line_bytes(124));
    }

    #[test]
    fn mixture_ratio_is_between_extremes() {
        let p = ValueProfile::new(
            &[(LineClass::Zero, 0.5), (LineClass::Random, 0.5)],
            3,
        );
        let r = p.expected_ratio(4000);
        // mean segments = 4.5 → ratio ≈ 1.78.
        assert!((1.6..=1.95).contains(&r), "ratio {r}");
    }

    #[test]
    fn codec_choice_changes_sizing_not_contents() {
        let p = ValueProfile::new(
            &[(LineClass::Zero, 0.3), (LineClass::SmallInt, 0.4), (LineClass::Random, 0.3)],
            5,
        );
        assert_eq!(p.segments_with(42, CodecKind::Fpc), p.segments_of(42));
        // ZCA only compresses zero lines, so every codec that also
        // catches zero lines dominates it on any mixture.
        let fpc = p.expected_ratio_with(CodecKind::Fpc, 2000);
        let bdi = p.expected_ratio_with(CodecKind::Bdi, 2000);
        let zca = p.expected_ratio_with(CodecKind::Zca, 2000);
        assert!(fpc >= zca, "fpc {fpc} vs zca {zca}");
        assert!(bdi >= zca, "bdi {bdi} vs zca {zca}");
        assert!(zca > 1.0, "the mixture has zero lines for zca to find");
    }

    #[test]
    fn seeds_change_assignment_not_statistics() {
        let a = ValueProfile::new(&[(LineClass::Zero, 0.5), (LineClass::Random, 0.5)], 1);
        let b = ValueProfile::new(&[(LineClass::Zero, 0.5), (LineClass::Random, 0.5)], 2);
        assert!((a.expected_ratio(4000) - b.expected_ratio(4000)).abs() < 0.1);
    }
}
