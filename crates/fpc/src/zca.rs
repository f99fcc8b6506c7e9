//! Zero-content-line codec (ZCA).
//!
//! The cheapest useful codec: detect all-zero lines and store them in a
//! single segment; everything else stays uncompressed. Dusser et al.'s
//! zero-content augmented caches showed null blocks alone capture a large
//! share of the compressible working set in many workloads; as a [`Codec`]
//! it doubles as the lower bound in codec comparisons — any scheme that
//! cannot beat ZCA on a workload is not earning its decompressor.
//!
//! (A hardware ZCA holds zero lines in dedicated tags with no data at
//! all; the VSC's 1-segment minimum allocation is the closest expressible
//! point in the shared segment frame.)

use crate::codec::{Codec, CompressedRepr};
use crate::segment::{LINE_BYTES, MAX_SEGMENTS};

/// A ZCA-compressed line: either known-zero or raw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZcaLine {
    /// All 64 bytes zero.
    Zero,
    /// Anything else, stored raw.
    Uncompressed(Box<[u8; LINE_BYTES]>),
}

impl CompressedRepr for ZcaLine {
    fn segments(&self) -> u8 {
        match self {
            ZcaLine::Zero => 1,
            ZcaLine::Uncompressed(_) => MAX_SEGMENTS,
        }
    }

    /// Fast path: the `Zero` arm is a single `[0u8; LINE_BYTES]` return —
    /// the compiler lowers it to wide zero stores with no per-byte work —
    /// and the raw arm is one 64-byte copy out of the box.
    #[inline]
    fn decompress(&self) -> [u8; LINE_BYTES] {
        match self {
            ZcaLine::Zero => [0u8; LINE_BYTES],
            ZcaLine::Uncompressed(raw) => **raw,
        }
    }

    fn decompress_reference(&self) -> [u8; LINE_BYTES] {
        // The scalar oracle: materialize the zero line byte-by-byte so the
        // fast return above has a genuinely independent implementation to
        // be differential-tested against.
        match self {
            ZcaLine::Zero => {
                let mut out = [0xFFu8; LINE_BYTES];
                for b in out.iter_mut() {
                    *b = 0;
                }
                out
            }
            ZcaLine::Uncompressed(raw) => {
                let mut out = [0u8; LINE_BYTES];
                for (dst, src) in out.iter_mut().zip(raw.iter()) {
                    *dst = *src;
                }
                out
            }
        }
    }
}

/// The zero-content-line codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zca;

impl Codec for Zca {
    type Compressed = ZcaLine;

    const NAME: &'static str = "zca";

    fn compress(line: &[u8; LINE_BYTES]) -> ZcaLine {
        if line.iter().all(|&b| b == 0) {
            ZcaLine::Zero
        } else {
            ZcaLine::Uncompressed(Box::new(*line))
        }
    }

    fn segments(line: &[u8; LINE_BYTES]) -> u8 {
        if line.iter().all(|&b| b == 0) {
            1
        } else {
            MAX_SEGMENTS
        }
    }

    fn decompression_latency(_base: u64) -> u64 {
        // Materializing zeros: the fill mux, no pipeline.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_line_is_one_segment() {
        let line = [0u8; LINE_BYTES];
        let c = Zca::compress(&line);
        assert_eq!(c, ZcaLine::Zero);
        assert_eq!(c.segments(), 1);
        assert_eq!(c.decompress(), line);
        assert_eq!(Zca::segments(&line), 1);
    }

    #[test]
    fn one_nonzero_byte_stores_raw() {
        let mut line = [0u8; LINE_BYTES];
        line[63] = 1;
        let c = Zca::compress(&line);
        assert_eq!(c.segments(), MAX_SEGMENTS);
        assert_eq!(c.decompress(), line);
        assert_eq!(Zca::segments(&line), MAX_SEGMENTS);
    }
}
