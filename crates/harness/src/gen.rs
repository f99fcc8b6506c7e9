//! Seeded value generators with shrinking.
//!
//! A [`Gen<T>`] bundles a sampling function (draw a `T` from an [`Rng`])
//! with a shrinking function (propose strictly-simpler candidates for a
//! failing value). The property runner in [`crate::prop`] drives both:
//! sampling for the case loop, shrinking greedily after the first failure.
//!
//! Shrinking is value-based and heuristic — integers move toward their
//! lower bound, vectors lose elements, tuples shrink one component at a
//! time. That is enough to turn a 300-operation counterexample into a
//! handful of operations, which is what makes property failures debuggable.

use crate::Rng;
use std::ops::{Bound, RangeBounds};
use std::rc::Rc;

/// Proposes strictly-simpler candidates for a value.
type Shrink<T> = Rc<dyn Fn(&T) -> Vec<T>>;

/// A reusable generator: sampling plus shrinking for values of type `T`.
pub struct Gen<T> {
    sample: Rc<dyn Fn(&mut Rng) -> T>,
    shrink: Shrink<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen { sample: Rc::clone(&self.sample), shrink: Rc::clone(&self.shrink) }
    }
}

impl<T: 'static> Gen<T> {
    /// Builds a generator from a sampling closure and a shrink closure.
    pub fn new(
        sample: impl Fn(&mut Rng) -> T + 'static,
        shrink: impl Fn(&T) -> Vec<T> + 'static,
    ) -> Self {
        Gen { sample: Rc::new(sample), shrink: Rc::new(shrink) }
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut Rng) -> T {
        (self.sample)(rng)
    }

    /// Proposes simpler candidates for `v` (possibly empty).
    pub fn shrinks(&self, v: &T) -> Vec<T> {
        (self.shrink)(v)
    }

    /// Maps the generated value. The mapped generator does not shrink
    /// (there is no inverse to shrink through); prefer building the final
    /// shape directly when shrinking matters.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::new(move |rng| f(self.sample(rng)), |_| Vec::new())
    }
}

fn resolve_bounds<T: Copy, W: Copy + PartialOrd>(
    range: impl RangeBounds<T>,
    min: W,
    max: W,
    widen: impl Fn(T) -> W,
    succ: impl Fn(W) -> W,
    pred: impl Fn(W) -> W,
) -> (W, W) {
    let lo = match range.start_bound() {
        Bound::Included(&x) => widen(x),
        Bound::Excluded(&x) => succ(widen(x)),
        Bound::Unbounded => min,
    };
    let hi = match range.end_bound() {
        Bound::Included(&x) => widen(x),
        Bound::Excluded(&x) => pred(widen(x)),
        Bound::Unbounded => max,
    };
    assert!(lo <= hi, "empty generator range");
    (lo, hi)
}

macro_rules! int_gen {
    ($(#[$doc:meta])* $name:ident, $t:ty) => {
        $(#[$doc])*
        pub fn $name(range: impl RangeBounds<$t>) -> Gen<$t> {
            let (lo, hi) = resolve_bounds(
                range,
                <$t>::MIN as i128,
                <$t>::MAX as i128,
                |x| x as i128,
                |x| x + 1,
                |x| x - 1,
            );
            let sample = move |rng: &mut Rng| -> $t {
                let span = (hi - lo) as u128 + 1;
                let off = if span > u128::from(u64::MAX) {
                    rng.next_u64()
                } else {
                    rng.below(span as u64)
                };
                (lo + off as i128) as $t
            };
            let shrink = move |&v: &$t| -> Vec<$t> {
                let v = v as i128;
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo as $t);
                    let mid = lo + (v - lo) / 2;
                    if mid != lo && mid != v {
                        out.push(mid as $t);
                    }
                    out.push((v - 1) as $t);
                }
                out.dedup();
                out
            };
            Gen::new(sample, shrink)
        }
    };
}

int_gen!(
    /// Uniform `u8` in `range`; shrinks toward the lower bound.
    u8s, u8
);
int_gen!(
    /// Uniform `u16` in `range`; shrinks toward the lower bound.
    u16s, u16
);
int_gen!(
    /// Uniform `u32` in `range`; shrinks toward the lower bound.
    u32s, u32
);
int_gen!(
    /// Uniform `u64` in `range`; shrinks toward the lower bound.
    u64s, u64
);
int_gen!(
    /// Uniform `usize` in `range`; shrinks toward the lower bound.
    usizes, usize
);
int_gen!(
    /// Uniform `i8` in `range`; shrinks toward the lower bound.
    i8s, i8
);
int_gen!(
    /// Uniform `i32` in `range`; shrinks toward the lower bound.
    i32s, i32
);
int_gen!(
    /// Uniform `i64` in `range`; shrinks toward the lower bound.
    i64s, i64
);

/// Uniform `bool`; `true` shrinks to `false`.
pub fn bools() -> Gen<bool> {
    Gen::new(|rng| rng.chance(0.5), |&v| if v { vec![false] } else { Vec::new() })
}

/// Picks uniformly from `items`; shrinks toward earlier elements.
///
/// # Panics
///
/// Sampling panics if `items` is empty.
pub fn select<T: Clone + PartialEq + 'static>(items: Vec<T>) -> Gen<T> {
    assert!(!items.is_empty(), "cannot select from an empty list");
    let pick = items.clone();
    Gen::new(
        move |rng| pick[rng.below(pick.len() as u64) as usize].clone(),
        move |v| {
            match items.iter().position(|x| x == v) {
                Some(i) => items[..i].to_vec(),
                None => Vec::new(),
            }
        },
    )
}

/// Pair of independent generators; shrinks one component at a time.
pub fn pair<A, B>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)>
where
    A: Clone + 'static,
    B: Clone + 'static,
{
    let (sa, sb) = (a.clone(), b.clone());
    Gen::new(
        move |rng| (sa.sample(rng), sb.sample(rng)),
        move |(va, vb)| {
            let mut out: Vec<(A, B)> =
                a.shrinks(va).into_iter().map(|x| (x, vb.clone())).collect();
            out.extend(b.shrinks(vb).into_iter().map(|x| (va.clone(), x)));
            out
        },
    )
}

/// Triple of independent generators; shrinks one component at a time.
pub fn triple<A, B, C>(a: Gen<A>, b: Gen<B>, c: Gen<C>) -> Gen<(A, B, C)>
where
    A: Clone + 'static,
    B: Clone + 'static,
    C: Clone + 'static,
{
    pair(pair(a, b), c).remap(
        |((a, b), c)| (a, b, c),
        |(a, b, c)| ((a.clone(), b.clone()), c.clone()),
    )
}

/// Quadruple of independent generators; shrinks one component at a time.
pub fn quad<A, B, C, D>(a: Gen<A>, b: Gen<B>, c: Gen<C>, d: Gen<D>) -> Gen<(A, B, C, D)>
where
    A: Clone + 'static,
    B: Clone + 'static,
    C: Clone + 'static,
    D: Clone + 'static,
{
    pair(pair(a, b), pair(c, d)).remap(
        |((a, b), (c, d))| (a, b, c, d),
        |(a, b, c, d)| ((a.clone(), b.clone()), (c.clone(), d.clone())),
    )
}

impl<T: 'static> Gen<T> {
    /// Bidirectional map: `fwd` shapes the generated value, `back` undoes
    /// it so shrinking can run in the source domain.
    pub fn remap<U: 'static>(
        self,
        fwd: impl Fn(T) -> U + Copy + 'static,
        back: impl Fn(&U) -> T + 'static,
    ) -> Gen<U> {
        let src = self.clone();
        Gen::new(
            move |rng| fwd(src.sample(rng)),
            move |u| self.shrinks(&back(u)).into_iter().map(fwd).collect(),
        )
    }
}

/// Vector of `elem` values with a length drawn from `len`.
///
/// Shrinks by halving toward the minimum length, dropping single
/// elements, and shrinking individual elements in place.
pub fn vec_of<T>(elem: Gen<T>, len: impl RangeBounds<usize>) -> Gen<Vec<T>>
where
    T: Clone + 'static,
{
    let (lo, hi) = resolve_bounds(len, 0, usize::MAX as i128, |x| x as i128, |x| x + 1, |x| x - 1);
    let (lo, hi) = (lo as usize, hi as usize);
    let length = usizes(lo..=hi);
    let sampler = elem.clone();
    Gen::new(
        move |rng| {
            let n = length.sample(rng);
            (0..n).map(|_| sampler.sample(rng)).collect()
        },
        move |v: &Vec<T>| {
            let mut out: Vec<Vec<T>> = Vec::new();
            // Structural shrinks: halve toward the minimum, drop one element.
            if v.len() > lo {
                let half = (v.len() / 2).max(lo);
                if half < v.len() {
                    out.push(v[..half].to_vec());
                }
                for cut in [0, v.len() / 2, v.len() - 1] {
                    let mut shorter = v.clone();
                    shorter.remove(cut);
                    out.push(shorter);
                }
            }
            // Element shrinks: bounded fan-out to keep passes cheap.
            for i in 0..v.len().min(24) {
                for cand in elem.shrinks(&v[i]).into_iter().take(3) {
                    let mut alt = v.clone();
                    alt[i] = cand;
                    out.push(alt);
                }
            }
            out
        },
    )
}

/// Vector of exactly `n` elements (element-wise shrinking only).
pub fn vec_exact<T>(elem: Gen<T>, n: usize) -> Gen<Vec<T>>
where
    T: Clone + 'static,
{
    vec_of(elem, n..=n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::new(0xDECAF)
    }

    #[test]
    fn ints_stay_in_range() {
        let g = u64s(5..48);
        let mut r = rng();
        for _ in 0..10_000 {
            let v = g.sample(&mut r);
            assert!((5..48).contains(&v));
        }
    }

    #[test]
    fn full_u64_range_works() {
        let g = u64s(..);
        let mut r = rng();
        let a = g.sample(&mut r);
        let b = g.sample(&mut r);
        assert_ne!(a, b);
    }

    #[test]
    fn signed_ranges_work() {
        let g = i64s(-7..=7);
        let mut r = rng();
        for _ in 0..1_000 {
            assert!((-7..=7).contains(&g.sample(&mut r)));
        }
    }

    #[test]
    fn int_shrink_moves_toward_lower_bound() {
        let g = u64s(3..100);
        for cand in g.shrinks(&50) {
            assert!((3..50).contains(&cand));
        }
        assert!(g.shrinks(&3).is_empty(), "lower bound is already minimal");
    }

    #[test]
    fn bool_shrinks_to_false() {
        assert_eq!(bools().shrinks(&true), vec![false]);
        assert!(bools().shrinks(&false).is_empty());
    }

    #[test]
    fn select_shrinks_to_earlier_items() {
        let g = select(vec![10, 20, 30]);
        assert_eq!(g.shrinks(&30), vec![10, 20]);
        assert!(g.shrinks(&10).is_empty());
    }

    #[test]
    fn vec_respects_length_bounds() {
        let g = vec_of(u8s(..), 2..5);
        let mut r = rng();
        for _ in 0..1_000 {
            let v = g.sample(&mut r);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn vec_shrinks_never_go_below_min_len() {
        let g = vec_of(u8s(..), 2..5);
        for cand in g.shrinks(&vec![9, 8, 7, 6]) {
            assert!(cand.len() >= 2);
        }
    }

    #[test]
    fn tuple_shrinks_one_side_at_a_time() {
        let g = pair(u8s(0..10), u8s(0..10));
        for (a, b) in g.shrinks(&(4, 7)) {
            assert!((a, b) != (4, 7));
            assert!(a == 4 || b == 7, "both sides changed at once");
        }
    }

    #[test]
    fn quad_samples_and_shrinks() {
        let g = quad(u8s(..), u64s(0..1000), u8s(..), u64s(0..10_000));
        let mut r = rng();
        let v = g.sample(&mut r);
        assert!(v.1 < 1000 && v.3 < 10_000);
        assert!(!g.shrinks(&(5, 500, 5, 5_000)).is_empty());
    }

    #[test]
    fn sampling_is_deterministic() {
        let g = vec_of(pair(u64s(0..48), bools()), 1..400);
        let a = g.sample(&mut Rng::new(9));
        let b = g.sample(&mut Rng::new(9));
        assert_eq!(a, b);
    }
}
