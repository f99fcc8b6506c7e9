//! The pluggable cache-line codec abstraction.
//!
//! The paper evaluates exactly one compression scheme (FPC), but nothing
//! in the system model depends on *which* codec sizes a line: the VSC
//! cache, the link and the memory controller only ever see a segment
//! count in `1..=MAX_SEGMENTS`. [`Codec`] captures that contract —
//! compress to a token stream, decompress losslessly, report sizes in
//! segments of the shared frame (`MAX_SEGMENTS` segments of
//! `SEGMENT_BYTES`), and model per-codec decompression latency. Three
//! implementations ship:
//!
//! - [`Fpc`] — the paper's Frequent Pattern Compression (the existing
//!   [`compress`]/[`compressed_segments`] fast path, unchanged),
//! - [`crate::Bdi`] — base-delta-immediate (Pekhimenko et al.), and
//! - [`crate::Zca`] — a zero-content-line codec that compresses only
//!   all-zero lines.
//!
//! The simulator selects a codec through [`CodecKind`] in its system
//! config. Hot paths do not match on the enum per line: the engine
//! resolves [`CodecKind::segments_fn`] once at construction, yielding the
//! *monomorphized* sizing function of the chosen codec as a plain `fn`
//! pointer, so per-line sizing carries no dispatch branch.

use crate::line::{compress, compressed_segments, CompressedLine};
use crate::segment::LINE_BYTES;

/// A compressed image of one 64-byte line: knows its storage size and can
/// reconstruct the original bytes exactly.
pub trait CompressedRepr {
    /// Storage size in segments (`1..=MAX_SEGMENTS`; `MAX_SEGMENTS` means
    /// the line is kept uncompressed).
    fn segments(&self) -> u8;

    /// Reconstructs the original line. Lossless: for any codec `C`,
    /// `C::compress(&line).decompress() == line`.
    ///
    /// This is the codec's *fast* decode path (dispatch-table/SWAR); the
    /// conformance kit's decode law pins it byte-for-byte against
    /// [`CompressedRepr::decompress_reference`].
    fn decompress(&self) -> [u8; LINE_BYTES];

    /// Scalar reference decoder: a deliberately independent, per-element
    /// implementation kept in-tree as the differential oracle for
    /// [`CompressedRepr::decompress`] and as the baseline the
    /// codec-throughput gate measures decode speedups against.
    fn decompress_reference(&self) -> [u8; LINE_BYTES];
}

/// A cache-line compression scheme.
///
/// All codecs share the system's segment frame: a 64-byte line, 8-byte
/// segments, 8 segments uncompressed. A codec only decides *how many* of
/// those segments a given line's contents need, plus the latency its
/// decompression pipeline costs.
pub trait Codec {
    /// The codec's compressed representation.
    type Compressed: CompressedRepr;

    /// Short name used in reports and artifacts.
    const NAME: &'static str;

    /// Fully compresses a line to its token-stream representation.
    fn compress(line: &[u8; LINE_BYTES]) -> Self::Compressed;

    /// Sizing-only fast path: the segment count `compress` would report,
    /// without materializing the representation. Must agree exactly with
    /// `Self::compress(line).segments()` (the conformance kit checks).
    fn segments(line: &[u8; LINE_BYTES]) -> u8;

    /// Decompression pipeline latency in cycles, given the system's
    /// configured FPC-calibrated base penalty (Table 1's 5 cycles).
    fn decompression_latency(base: u64) -> u64;
}

/// The paper's Frequent Pattern Compression, routed through the [`Codec`]
/// trait. `compress`/`segments` are the existing crate entry points — the
/// differential oracle test pins this byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fpc;

impl CompressedRepr for CompressedLine {
    fn segments(&self) -> u8 {
        CompressedLine::segments(self)
    }

    fn decompress(&self) -> [u8; LINE_BYTES] {
        CompressedLine::decompress(self)
    }

    fn decompress_reference(&self) -> [u8; LINE_BYTES] {
        CompressedLine::decompress_reference(self)
    }
}

impl Codec for Fpc {
    type Compressed = CompressedLine;

    const NAME: &'static str = "fpc";

    fn compress(line: &[u8; LINE_BYTES]) -> CompressedLine {
        compress(line)
    }

    fn segments(line: &[u8; LINE_BYTES]) -> u8 {
        compressed_segments(line)
    }

    fn decompression_latency(base: u64) -> u64 {
        // The configured penalty *is* the FPC pipeline (Table 1).
        base
    }
}

/// Runtime codec selector for the system config.
///
/// The enum exists only at configuration time; per-line sizing goes
/// through [`CodecKind::segments_fn`], which returns the selected codec's
/// monomorphized `Codec::segments` as a `fn` pointer resolved once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// Frequent Pattern Compression (the paper's codec; the default).
    #[default]
    Fpc,
    /// Base-delta-immediate.
    Bdi,
    /// Zero-content lines only.
    Zca,
}

impl CodecKind {
    /// All codecs, in presentation order.
    pub fn all() -> [CodecKind; 3] {
        [CodecKind::Fpc, CodecKind::Bdi, CodecKind::Zca]
    }

    /// Short label used in reports and artifact names.
    pub fn label(self) -> &'static str {
        match self {
            CodecKind::Fpc => Fpc::NAME,
            CodecKind::Bdi => crate::Bdi::NAME,
            CodecKind::Zca => crate::Zca::NAME,
        }
    }

    /// The selected codec's sizing function, as a monomorphized `fn`
    /// pointer: resolve once, then size lines branch-free.
    pub fn segments_fn(self) -> fn(&[u8; LINE_BYTES]) -> u8 {
        match self {
            CodecKind::Fpc => Fpc::segments,
            CodecKind::Bdi => crate::Bdi::segments,
            CodecKind::Zca => crate::Zca::segments,
        }
    }

    /// The selected codec's compress → fast-decode round trip, as one
    /// monomorphized `fn` pointer. The engine and link resolve this once
    /// at construction and use it wherever they must *materialize* the
    /// bytes a compressed line stores or delivers (chaos integrity checks,
    /// invariant probes, corrupted-delivery verification), so those sites
    /// ride the dispatch-table/SWAR decoders with no per-line enum branch.
    /// For every lossless codec this is an identity on the line image.
    pub fn image_fn(self) -> fn(&[u8; LINE_BYTES]) -> [u8; LINE_BYTES] {
        fn image<C: Codec>(line: &[u8; LINE_BYTES]) -> [u8; LINE_BYTES] {
            C::compress(line).decompress()
        }
        match self {
            CodecKind::Fpc => image::<Fpc>,
            CodecKind::Bdi => image::<crate::Bdi>,
            CodecKind::Zca => image::<crate::Zca>,
        }
    }

    /// Decompression latency for this codec given the configured base
    /// penalty.
    pub fn decompression_latency(self, base: u64) -> u64 {
        match self {
            CodecKind::Fpc => Fpc::decompression_latency(base),
            CodecKind::Bdi => crate::Bdi::decompression_latency(base),
            CodecKind::Zca => crate::Zca::decompression_latency(base),
        }
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpc_trait_routes_to_crate_entry_points() {
        let mut line = [0u8; LINE_BYTES];
        line[0] = 0x7f;
        assert_eq!(Fpc::segments(&line), compressed_segments(&line));
        let c = Fpc::compress(&line);
        assert_eq!(c, compress(&line));
        assert_eq!(CompressedRepr::segments(&c), compressed_segments(&line));
        assert_eq!(CompressedRepr::decompress(&c), line);
    }

    #[test]
    fn kind_resolves_each_codec() {
        let zero = [0u8; LINE_BYTES];
        for kind in CodecKind::all() {
            assert_eq!((kind.segments_fn())(&zero), 1, "{kind}: zero line is minimal");
        }
        assert_eq!(CodecKind::default(), CodecKind::Fpc);
    }

    #[test]
    fn image_fn_is_identity_and_reference_decode_agrees() {
        let mut lines = vec![[0u8; LINE_BYTES], [0x7Fu8; LINE_BYTES]];
        let mut mixed = [0u8; LINE_BYTES];
        for (i, b) in mixed.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37) | (u8::from(i % 3 == 0) * 0x80);
        }
        lines.push(mixed);
        for kind in CodecKind::all() {
            let image = kind.image_fn();
            for line in &lines {
                assert_eq!(image(line), *line, "{kind}: compress→decode must be lossless");
            }
        }
        for line in &lines {
            assert_eq!(Fpc::compress(line).decompress_reference(), *line);
            assert_eq!(crate::Bdi::compress(line).decompress_reference(), *line);
            assert_eq!(crate::Zca::compress(line).decompress_reference(), *line);
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = CodecKind::all().iter().map(|k| k.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn fpc_latency_model_is_the_configured_base() {
        assert_eq!(CodecKind::Fpc.decompression_latency(5), 5);
    }
}
