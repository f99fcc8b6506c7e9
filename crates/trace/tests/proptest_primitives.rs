//! Differential property tests: the generator's division-free hot-path
//! primitives against the formulas they replaced, bit for bit.

use cmpsim_harness::{gen, prop::check, prop_assert_eq};
use cmpsim_trace::{Geometric, Region, Rng};

/// The per-draw formula the generator used before [`Geometric`] hoisted
/// `ln(1 - p)` out of it.
fn reference_geometric(rng: &mut Rng, p: f64) -> u64 {
    if p >= 1.0 {
        return 0;
    }
    if p <= 0.0 {
        return u64::MAX / 2;
    }
    let u = rng.f64().max(f64::MIN_POSITIVE);
    (u.ln() / (1.0 - p).ln()).floor() as u64
}

/// Probabilities at and beyond the edges, then uniform ones.
fn probability() -> gen::Gen<f64> {
    const EDGES: [f64; 12] = [
        0.0,
        1.0,
        f64::NAN,
        1e-300,
        1.0 - 1e-16,
        -0.0,
        -0.5,
        1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        0.5,
    ];
    gen::pair(gen::usizes(0..24), gen::u64s(..)).map(|(i, bits)| match EDGES.get(i) {
        Some(&p) => p,
        None => (bits >> 11) as f64 / (1u64 << 53) as f64,
    })
}

#[test]
fn geometric_sampler_matches_the_per_draw_formula() {
    let cases = gen::pair(gen::u64s(..), probability());
    check("geometric_sampler_matches_the_per_draw_formula", &cases, |&(seed, p)| {
        let sampler = Geometric::new(p);
        let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
        for draw in 0..64 {
            prop_assert_eq!(
                sampler.sample(&mut a),
                reference_geometric(&mut b, p),
                "draw {draw}, p {p:e}"
            );
        }
        prop_assert_eq!(a.next_u64(), b.next_u64(), "both consumed the same draws");
        Ok(())
    });
}

#[test]
fn truncating_cast_equals_floor_then_cast() {
    check("truncating_cast_equals_floor_then_cast", &gen::u64s(..), |&bits| {
        let x = f64::from_bits(bits);
        prop_assert_eq!(x as u64, x.floor() as u64, "x = {x:e}");
        Ok(())
    });
}

#[test]
fn region_line_matches_the_modulo_formula() {
    let cases = gen::triple(gen::u64s(0..1 << 62), gen::u64s(1..=1 << 40), gen::u64s(..));
    check("region_line_matches_the_modulo_formula", &cases, |&(base, lines, offset)| {
        let r = Region { base, lines };
        prop_assert_eq!(r.line(offset), base + offset % lines);
        prop_assert_eq!(r.line(offset % lines), base + offset % lines);
        Ok(())
    });
}
