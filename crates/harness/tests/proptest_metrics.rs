//! Property tests for the service-metrics histograms: quantiles are a
//! pure function of the *multiset* of recorded values (insertion order
//! never matters), and snapshot `merge` is associative and commutative
//! and exactly equals the histogram that saw every value — the law that
//! makes per-worker histograms combinable into one service view.

use cmpsim_harness::metrics::{Histogram, HistogramSnapshot};
use cmpsim_harness::{gen, prop::check, prop_assert, prop_assert_eq, Rng};

/// Latency-shaped values: heavy at small magnitudes, with genuine
/// outliers up to the full u64 range so high octaves get exercised.
fn values() -> gen::Gen<Vec<u64>> {
    let v = gen::select(vec![
        0u64,
        1,
        2,
        15,
        16,
        17,
        100,
        1_000,
        65_535,
        65_536,
        1_000_000,
        123_456_789,
        u64::MAX / 2,
        u64::MAX,
    ]);
    gen::vec_of(v, 0..=60)
}

fn snap_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::default();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// Deterministic Fisher-Yates driven by the harness RNG.
fn shuffled(values: &[u64], seed: u64) -> Vec<u64> {
    let mut out = values.to_vec();
    let mut rng = Rng::new(seed | 1);
    for i in (1..out.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// The snapshot (and so every quantile) is identical no matter what
/// order the same values were recorded in.
#[test]
fn quantiles_invariant_under_insertion_order() {
    let cases = gen::pair(values(), gen::u64s(..));
    check("quantiles_invariant_under_insertion_order", &cases, |(vals, seed)| {
        let a = snap_of(vals);
        let b = snap_of(&shuffled(vals, *seed));
        prop_assert_eq!(&a, &b);
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(a.quantile(q), b.quantile(q));
        }
        Ok(())
    });
}

/// `merge` is commutative: a∪b == b∪a.
#[test]
fn merge_is_commutative() {
    let cases = gen::pair(values(), values());
    check("merge_is_commutative", &cases, |(xs, ys)| {
        let mut ab = snap_of(xs);
        ab.merge(&snap_of(ys));
        let mut ba = snap_of(ys);
        ba.merge(&snap_of(xs));
        prop_assert_eq!(&ab, &ba);
        Ok(())
    });
}

/// `merge` is associative: (a∪b)∪c == a∪(b∪c).
#[test]
fn merge_is_associative() {
    let cases = gen::triple(values(), values(), values());
    check("merge_is_associative", &cases, |(xs, ys, zs)| {
        let mut left = snap_of(xs);
        left.merge(&snap_of(ys));
        left.merge(&snap_of(zs));
        let mut bc = snap_of(ys);
        bc.merge(&snap_of(zs));
        let mut right = snap_of(xs);
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        Ok(())
    });
}

/// Merging per-worker snapshots equals the one histogram that recorded
/// every value — the exact property the grid driver relies on when each
/// worker records into a shared histogram.
#[test]
fn merge_equals_histogram_of_union() {
    let cases = gen::pair(values(), values());
    check("merge_equals_histogram_of_union", &cases, |(xs, ys)| {
        let mut merged = snap_of(xs);
        merged.merge(&snap_of(ys));
        let mut union = xs.clone();
        union.extend_from_slice(ys);
        prop_assert_eq!(&merged, &snap_of(&union));
        Ok(())
    });
}

/// Quantiles stay within the documented 1/16 relative error of a true
/// rank-based quantile over the raw values (exact below 16).
#[test]
fn quantile_relative_error_is_bounded() {
    let cases = gen::pair(values(), gen::u64s(0..=100));
    check("quantile_relative_error_is_bounded", &cases, |(vals, pct)| {
        if vals.is_empty() {
            return Ok(());
        }
        let q = *pct as f64 / 100.0;
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        // Same rank convention the histogram documents: the value at
        // rank clamp(ceil(q*count), 1, count), 1-indexed.
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let got = snap_of(vals).quantile(q);
        // The reported quantile is the bucket upper bound clamped into
        // [min, max]: never below the exact rank value, and at most one
        // sub-bucket (1/16 relative) above it.
        prop_assert!(got >= exact, "q={q} got={got} exact={exact}");
        let bound = exact.saturating_add(exact / 16).saturating_add(1);
        prop_assert!(got <= bound, "q={q} got={got} exact={exact} bound={bound}");
        Ok(())
    });
}
