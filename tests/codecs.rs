//! Cross-codec conformance laws plus end-to-end codec selection.
//!
//! The conformance half drives the harness's reusable law kit
//! (`cmpsim_harness::codec_conformance`) against all three shipped codecs
//! through the `Codec` trait. The end-to-end half runs short simulations
//! with each codec selected in the system config, checking that codec
//! choice flows through cache, link and memory without breaking the
//! engine's accounting.

use cmpsim::fpc::{Bdi, Codec, CodecKind, CompressedRepr, Fpc, Zca, LINE_BYTES, MAX_SEGMENTS};
use cmpsim::{workload, System, SystemConfig, Variant};
use cmpsim_harness::codec_conformance::{
    check_conformance, check_decode_zero_mask_sweep, CodecSpec,
};

/// Adapts any `Codec` implementation to the harness's fn-pointer spec.
/// The closures are non-capturing, so they coerce to `fn` pointers even
/// though they mention the type parameter.
fn spec_for<C: Codec>() -> CodecSpec<LINE_BYTES> {
    CodecSpec {
        name: C::NAME,
        max_segments: MAX_SEGMENTS,
        round_trip: |line| {
            let c = C::compress(line);
            (c.segments(), c.decompress())
        },
        segments: C::segments,
        decode_pair: |line| {
            let c = C::compress(line);
            (c.decompress(), c.decompress_reference())
        },
    }
}

#[test]
fn fpc_satisfies_codec_laws() {
    check_conformance(&spec_for::<Fpc>());
}

#[test]
fn fpc_decoders_agree_on_every_zero_mask() {
    // All 2^16 word-granularity zero layouts of a 64-byte line: every
    // zero-run length and placement the dispatch-table decoder can see.
    // The filler word sizes as Uncompressed, so each mask also exercises
    // run termination against the widest token.
    check_decode_zero_mask_sweep(&spec_for::<Fpc>(), 0x8042_FF85);
}

#[test]
fn bdi_satisfies_codec_laws() {
    check_conformance(&spec_for::<Bdi>());
}

#[test]
fn zca_satisfies_codec_laws() {
    check_conformance(&spec_for::<Zca>());
}

fn run_with(codec: CodecKind, name: &str) -> cmpsim::RunResult {
    let cfg = Variant::BothCompression
        .apply(SystemConfig::paper_default(4))
        .with_codec(codec)
        .with_seed(11);
    let spec = workload(name).expect("known workload");
    let mut sys = System::new(cfg, &spec);
    sys.run(10_000, 30_000).expect("simulation failed")
}

#[test]
fn every_codec_runs_end_to_end() {
    for codec in CodecKind::all() {
        for name in ["apache", "mgrid"] {
            let r = run_with(codec, name);
            assert!(r.runtime() > 0, "{codec}/{name}: zero runtime");
            assert!(r.ipc() > 0.0, "{codec}/{name}: zero IPC");
            assert!(
                r.stats.compression_ratio() >= 0.99,
                "{codec}/{name}: compression made the cache smaller ({})",
                r.stats.compression_ratio()
            );
        }
    }
}

#[test]
fn sampled_invariants_hold_under_every_codec() {
    // The VSC invariant checker validates fills against the *configured*
    // codec's geometry; run it forced-on with each codec to prove the
    // engine never stores a segment count outside that geometry.
    for codec in CodecKind::all() {
        let cfg = Variant::BothCompression
            .apply(SystemConfig::paper_default(2))
            .with_codec(codec)
            .with_seed(11)
            .with_invariant_checks(true);
        let spec = workload("apache").expect("known workload");
        let mut sys = System::new(cfg, &spec);
        let r = sys.run(5_000, 15_000);
        assert!(r.is_ok(), "{codec}: invariant violation: {:?}", r.err());
    }
}

#[test]
fn codec_selection_is_deterministic() {
    for codec in CodecKind::all() {
        let a = run_with(codec, "zeus");
        let b = run_with(codec, "zeus");
        assert_eq!(a.runtime(), b.runtime(), "{codec}");
        assert_eq!(a.stats.link.total_bytes, b.stats.link.total_bytes, "{codec}");
    }
}

#[test]
fn default_codec_is_fpc_bit_for_bit() {
    let spec = workload("apache").expect("known workload");
    let base = Variant::BothCompression.apply(SystemConfig::paper_default(4)).with_seed(11);
    let mut implicit = System::new(base.clone(), &spec);
    let mut explicit = System::new(base.with_codec(CodecKind::Fpc), &spec);
    let ri = implicit.run(10_000, 30_000).expect("simulation failed");
    let re = explicit.run(10_000, 30_000).expect("simulation failed");
    assert_eq!(ri.runtime(), re.runtime());
    assert_eq!(ri.stats.l2.demand_misses, re.stats.l2.demand_misses);
    assert_eq!(ri.stats.link.total_bytes, re.stats.link.total_bytes);
}

#[test]
fn richer_codecs_compress_at_least_as_well_as_zca() {
    // ZCA only catches all-zero lines; FPC and BDI both subsume that
    // class, so on a zero-rich commercial mix they can't do worse.
    let zca = run_with(CodecKind::Zca, "apache").stats.compression_ratio();
    let fpc = run_with(CodecKind::Fpc, "apache").stats.compression_ratio();
    let bdi = run_with(CodecKind::Bdi, "apache").stats.compression_ratio();
    assert!(fpc >= zca, "fpc {fpc} vs zca {zca}");
    assert!(bdi >= zca, "bdi {bdi} vs zca {zca}");
    assert!(zca >= 1.0, "zca {zca} must never shrink the cache");
}
