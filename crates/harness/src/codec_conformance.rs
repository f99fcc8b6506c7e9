//! Cross-codec conformance laws for cache-line compression codecs.
//!
//! Every codec the simulator ships (FPC, BDI, ZCA) must satisfy the same
//! four laws for the engine's accounting to be sound, regardless of how
//! the codec actually encodes bytes:
//!
//! 1. **Round-trip exactness** — decompressing a compressed line yields
//!    the original bytes. Compression is a storage optimization, never a
//!    lossy transform.
//! 2. **Sizing agreement** — the fast segment-count path (what the engine
//!    charges each fetched line) equals the segment count of the full
//!    compressed representation, and stays in `1..=max_segments`.
//! 3. **Zero-fill monotonicity** — zeroing any set of aligned 8-byte
//!    chunks never *increases* the segment count. Zeros are the most
//!    compressible content in every scheme the paper considers; a codec
//!    that pessimizes on them would invert the engine's capacity model.
//!    The law is stated at 8-byte granularity because that is the
//!    coarsest element size any shipped codec uses: zeroing a whole
//!    element only ever removes constraints, while sub-element zeroing
//!    can legitimately re-shape an encoding.
//! 4. **Never expands** — no line costs more than `max_segments`, and the
//!    all-zero line is a global minimum of the sizing function.
//! 5. **Decode agreement** — the production decoder (dispatch-table /
//!    SWAR fast path) and the scalar reference decoder reconstruct the
//!    same bytes from the same compressed line, and both reproduce the
//!    original. A fast path that drifts from the reference is a silent
//!    data-corruption bug even when it round-trips *most* inputs, so the
//!    law is checked property-style here and exhaustively over zero
//!    masks by [`check_decode_zero_mask_sweep`].
//!
//! The kit is generic over the line size and takes plain `fn` pointers so
//! this zero-dependency crate can check codecs defined in `cmpsim-fpc`
//! (which dev-depends on the harness, not the other way around). Lines
//! are drawn from a structured generator — zero-heavy, small-integer,
//! repeated-value, near-base and random classes — and counterexamples
//! shrink by zeroing chunks, so a failure prints the simplest line that
//! breaks the law.

use crate::gen::{self, Gen};
use crate::prop;
use crate::Rng;
use crate::{prop_assert, prop_assert_eq};

/// A codec under test, described by plain function pointers.
///
/// `N` is the line size in bytes and must be a multiple of 8 (the law
/// granularity and the segment size share that alignment).
#[derive(Clone, Copy)]
pub struct CodecSpec<const N: usize> {
    /// Codec name, used to label the properties in failure reports.
    pub name: &'static str,
    /// Segments an uncompressed line occupies (the sizing ceiling).
    pub max_segments: u8,
    /// Full path: compress then decompress, returning the compressed
    /// segment count and the reconstructed line.
    pub round_trip: fn(&[u8; N]) -> (u8, [u8; N]),
    /// Fast sizing path (the one the engine calls).
    pub segments: fn(&[u8; N]) -> u8,
    /// Both decoders over the compressed form of the line: the
    /// production fast path first, the scalar reference oracle second.
    pub decode_pair: DecodePair<N>,
}

/// Both decoders of a line's compressed form: fast path, then reference.
pub type DecodePair<const N: usize> = fn(&[u8; N]) -> ([u8; N], [u8; N]);

/// Zeroes the 8-byte chunks of `line` selected by `mask` (bit `i` covers
/// bytes `8i..8i+8`).
fn zero_chunks<const N: usize>(line: &[u8; N], mask: u32) -> [u8; N] {
    let mut out = *line;
    for chunk in 0..N / 8 {
        if mask & (1 << chunk) != 0 {
            out[chunk * 8..chunk * 8 + 8].fill(0);
        }
    }
    out
}

/// Structured line generator: draws from content classes spanning the
/// compressibility landscape, shrinks by zeroing whole 8-byte chunks
/// (then whole lines), so minimal counterexamples are mostly zero.
pub fn line_gen<const N: usize>() -> Gen<[u8; N]> {
    assert!(N >= 8 && N.is_multiple_of(8), "line size must be a positive multiple of 8");
    let sample = move |rng: &mut Rng| -> [u8; N] {
        let mut line = [0u8; N];
        match rng.below(6) {
            0 => {} // all zeros
            1 => {
                // Zero-heavy: each 4-byte word is zero half the time.
                for w in line.chunks_exact_mut(4) {
                    if !rng.chance(0.5) {
                        w.copy_from_slice(&(rng.next_u64() as u32).to_le_bytes());
                    }
                }
            }
            2 => {
                // Small integers per 4-byte word (FPC/BDI sweet spot).
                for w in line.chunks_exact_mut(4) {
                    w.copy_from_slice(&((rng.next_u64() % 256) as u32).to_le_bytes());
                }
            }
            3 => {
                // One 8-byte value repeated across the line.
                let v = rng.next_u64().to_le_bytes();
                for c in line.chunks_exact_mut(8) {
                    c.copy_from_slice(&v);
                }
            }
            4 => {
                // Near-base: a shared base plus a small delta per element.
                let base = rng.next_u64() >> 8;
                for c in line.chunks_exact_mut(8) {
                    c.copy_from_slice(&(base.wrapping_add(rng.below(128)).to_le_bytes()));
                }
            }
            _ => {
                for b in line.iter_mut() {
                    *b = rng.next_u64() as u8;
                }
            }
        }
        line
    };
    let shrink = move |line: &[u8; N]| -> Vec<[u8; N]> {
        let mut out = Vec::new();
        if line.iter().any(|&b| b != 0) {
            out.push([0u8; N]);
            for chunk in 0..N / 8 {
                if line[chunk * 8..chunk * 8 + 8].iter().any(|&b| b != 0) {
                    out.push(zero_chunks(line, 1 << chunk));
                }
            }
        }
        out
    };
    Gen::new(sample, shrink)
}

/// Runs the four conformance laws against `spec`, panicking with a
/// shrunken counterexample on the first violation.
///
/// Case counts follow the harness-wide `CMPSIM_PT_CASES` / `CMPSIM_PT_SEED`
/// environment overrides.
///
/// # Panics
///
/// Panics if any law fails (with a replayable report), or if `N` is not a
/// positive multiple of 8.
pub fn check_conformance<const N: usize>(spec: &CodecSpec<N>) {
    let lines = line_gen::<N>();
    let spec = *spec;

    prop::check(&format!("{}_round_trip_exact", spec.name), &lines, move |line| {
        let (_, restored) = (spec.round_trip)(line);
        prop_assert!(
            restored == *line,
            "decompression lost data: got {restored:?}, want {line:?}"
        );
        Ok(())
    });

    prop::check(&format!("{}_fast_size_agrees", spec.name), &lines, move |line| {
        let fast = (spec.segments)(line);
        let (full, _) = (spec.round_trip)(line);
        prop_assert_eq!(fast, full, "fast sizing disagrees with the compressed form");
        prop_assert!(
            (1..=spec.max_segments).contains(&fast),
            "segment count {fast} outside 1..={}",
            spec.max_segments
        );
        Ok(())
    });

    let chunk_masks = gen::pair(lines.clone(), gen::u32s(0..(1u32 << (N / 8))));
    prop::check(
        &format!("{}_zero_fill_monotone", spec.name),
        &chunk_masks,
        move |(line, mask)| {
            let zeroed = zero_chunks(line, *mask);
            let before = (spec.segments)(line);
            let after = (spec.segments)(&zeroed);
            prop_assert!(
                after <= before,
                "zeroing chunks {mask:#b} grew the line from {before} to {after} segments"
            );
            Ok(())
        },
    );

    prop::check(&format!("{}_never_expands", spec.name), &lines, move |line| {
        let seg = (spec.segments)(line);
        prop_assert!(seg <= spec.max_segments, "line costs {seg} segments");
        let floor = (spec.segments)(&[0u8; N]);
        prop_assert!(
            floor <= seg,
            "all-zero line ({floor} segments) is not the sizing minimum ({seg})"
        );
        Ok(())
    });

    prop::check(&format!("{}_fast_decode_matches_reference", spec.name), &lines, move |line| {
        let (fast, reference) = (spec.decode_pair)(line);
        prop_assert!(
            fast == reference,
            "fast decoder disagrees with the scalar reference:\n fast {fast:?}\n ref  {reference:?}"
        );
        prop_assert!(fast == *line, "both decoders agree but lost data: {fast:?}");
        Ok(())
    });
}

/// Exhaustive decode-agreement sweep over every 4-byte-word zero mask.
///
/// For each of the `2^(N/4)` masks, builds a line whose words are either
/// zero (mask bit set) or a fixed `filler` word, and asserts the fast and
/// reference decoders agree bit-for-bit with each other and the input.
/// Zero placement is exactly what run-length and zero-aware encodings key
/// on, so this covers every run-length/boundary interaction a generator
/// would only sample — for 64-byte lines, all 65536 zero layouts.
///
/// # Panics
///
/// Panics on the first disagreeing mask, or if `N` is not a multiple of 4
/// or exceeds 64 bytes (larger lines would make the sweep infeasible).
pub fn check_decode_zero_mask_sweep<const N: usize>(spec: &CodecSpec<N>, filler: u32) {
    assert!(N.is_multiple_of(4) && N <= 64, "sweep is exhaustive over N/4 word-mask bits");
    let words = N / 4;
    for mask in 0u32..1 << words {
        let mut line = [0u8; N];
        for w in 0..words {
            if mask & (1 << w) == 0 {
                line[w * 4..w * 4 + 4].copy_from_slice(&filler.to_le_bytes());
            }
        }
        let (fast, reference) = (spec.decode_pair)(&line);
        assert!(
            fast == reference && fast == line,
            "{}: decoders disagree on zero mask {mask:#06x} (filler {filler:#010x})",
            spec.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic;

    // A toy lawful codec over 16-byte lines: one segment (8 bytes) per
    // nonzero chunk, minimum one; "compression" stores the line verbatim.
    fn toy_segments(line: &[u8; 16]) -> u8 {
        let nonzero =
            line.chunks_exact(8).filter(|c| c.iter().any(|&b| b != 0)).count() as u8;
        nonzero.max(1)
    }

    fn toy_round_trip(line: &[u8; 16]) -> (u8, [u8; 16]) {
        (toy_segments(line), *line)
    }

    fn toy_decode_pair(line: &[u8; 16]) -> ([u8; 16], [u8; 16]) {
        (*line, *line)
    }

    #[test]
    fn lawful_codec_passes() {
        let spec = CodecSpec {
            name: "toy",
            max_segments: 2,
            round_trip: toy_round_trip,
            segments: toy_segments,
            decode_pair: toy_decode_pair,
        };
        check_conformance(&spec);
        check_decode_zero_mask_sweep(&spec, 0xDEAD_BEEF);
    }

    #[test]
    fn non_monotone_codec_is_rejected() {
        // Prices zero chunks *higher* than nonzero ones: monotonicity law
        // must catch it.
        fn bad_segments(line: &[u8; 16]) -> u8 {
            let zero = line.chunks_exact(8).filter(|c| c.iter().all(|&b| b == 0)).count();
            1 + zero as u8
        }
        fn bad_round_trip(line: &[u8; 16]) -> (u8, [u8; 16]) {
            (bad_segments(line), *line)
        }
        let result = panic::catch_unwind(|| {
            check_conformance(&CodecSpec {
                name: "bad",
                max_segments: 3,
                round_trip: bad_round_trip,
                segments: bad_segments,
                decode_pair: toy_decode_pair,
            });
        });
        assert!(result.is_err(), "non-monotone sizing must fail conformance");
    }

    #[test]
    fn lossy_codec_is_rejected() {
        fn lossy_round_trip(_line: &[u8; 16]) -> (u8, [u8; 16]) {
            (1, [0u8; 16])
        }
        fn one_segment(_line: &[u8; 16]) -> u8 {
            1
        }
        let result = panic::catch_unwind(|| {
            check_conformance(&CodecSpec {
                name: "lossy",
                max_segments: 2,
                round_trip: lossy_round_trip,
                segments: one_segment,
                decode_pair: toy_decode_pair,
            });
        });
        assert!(result.is_err(), "data loss must fail conformance");
    }

    #[test]
    fn drifting_fast_decoder_is_rejected() {
        // Fast path flips a byte the reference decodes correctly: the
        // decode-agreement law must catch the divergence.
        fn drifted(line: &[u8; 16]) -> ([u8; 16], [u8; 16]) {
            let mut fast = *line;
            fast[5] ^= 0x40;
            (fast, *line)
        }
        let spec = CodecSpec {
            name: "drift",
            max_segments: 2,
            round_trip: toy_round_trip,
            segments: toy_segments,
            decode_pair: drifted,
        };
        let by_property = panic::catch_unwind(|| check_conformance(&spec));
        assert!(by_property.is_err(), "decode drift must fail conformance");
        let by_sweep = panic::catch_unwind(|| check_decode_zero_mask_sweep(&spec, 1));
        assert!(by_sweep.is_err(), "decode drift must fail the zero-mask sweep");
    }

    #[test]
    fn shrinking_zeroes_chunks() {
        let g = line_gen::<16>();
        let mut line = [0u8; 16];
        line[3] = 7;
        line[12] = 9;
        let shrinks = g.shrinks(&line);
        assert!(shrinks.contains(&[0u8; 16]));
        // Each candidate zeroes one of the nonzero chunks.
        assert_eq!(shrinks.len(), 3);
        assert!(g.shrinks(&[0u8; 16]).is_empty());
    }
}
