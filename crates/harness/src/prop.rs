//! Deterministic property-test runner.
//!
//! [`check`] samples a [`Gen`], runs the property on each case, and on the
//! first failure greedily shrinks the counterexample before panicking with
//! a replayable report. Everything is seeded: the per-property stream is
//! derived from the property name, so adding cases to one test never
//! perturbs another.
//!
//! The `CMPSIM_PT_CASES` and `CMPSIM_PT_SEED` knobs set the number of
//! cases per property (default 128) and the base seed mixed into every
//! property's stream; a failure report prints both, so it replays
//! exactly.
//!
//! Properties report failure either by returning `Err(String)` (the
//! [`prop_assert!`](crate::prop_assert) family) or by panicking
//! (`assert!`, index out of bounds, ...); both shrink identically.

use crate::gen::Gen;
use crate::knobs::knobs;
use crate::rng::{hash_str, Rng};
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};

/// Runner configuration; [`Config::from_env`] is what [`check`] uses.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Cases to run per property.
    pub cases: u32,
    /// Base seed mixed into the per-property stream.
    pub seed: u64,
    /// Cap on shrinking passes after a failure.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: 128, seed: 0, max_shrink_steps: 2_000 }
    }
}

impl Config {
    /// Default config with the `CMPSIM_PT_CASES` / `CMPSIM_PT_SEED`
    /// knobs applied.
    pub fn from_env() -> Self {
        let d = Config::default();
        let k = knobs();
        Config { cases: k.pt_cases.unwrap_or(d.cases), seed: k.pt_seed.unwrap_or(d.seed), ..d }
    }
}

/// Outcome of one property invocation.
enum CaseResult {
    Pass,
    Fail(String),
}

fn run_case<T>(prop: &impl Fn(&T) -> Result<(), String>, value: &T) -> CaseResult {
    match panic::catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(Ok(())) => CaseResult::Pass,
        Ok(Err(msg)) => CaseResult::Fail(msg),
        Err(payload) => CaseResult::Fail(panic_message(&payload)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Runs `prop` against `cases` sampled values with [`Config::from_env`].
///
/// # Panics
///
/// Panics with a shrunken counterexample report if the property fails.
pub fn check<T: Clone + Debug + 'static>(
    name: &str,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    check_with(Config::from_env(), name, gen, prop)
}

/// [`check`] with an explicit configuration.
///
/// # Panics
///
/// Panics with a shrunken counterexample report if the property fails.
pub fn check_with<T: Clone + Debug + 'static>(
    cfg: Config,
    name: &str,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    let base = hash_str(name) ^ cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for case in 0..cfg.cases {
        let mut rng = Rng::new(base.wrapping_add(u64::from(case)));
        let value = gen.sample(&mut rng);
        if let CaseResult::Fail(first_msg) = run_case(&prop, &value) {
            let (minimal, msg, steps) = shrink(cfg, gen, &prop, value, first_msg);
            panic!(
                "property `{name}` failed (case {case}/{cases}, seed {seed}, \
                 {steps} shrink steps)\n  error: {msg}\n  minimal counterexample: \
                 {minimal:?}\n  replay: CMPSIM_PT_SEED={seed} CMPSIM_PT_CASES={cases}",
                cases = cfg.cases,
                seed = cfg.seed,
            );
        }
    }
}

/// Greedily walks shrink candidates, keeping the last failing value.
fn shrink<T: Clone + Debug + 'static>(
    cfg: Config,
    gen: &Gen<T>,
    prop: &impl Fn(&T) -> Result<(), String>,
    mut current: T,
    mut msg: String,
) -> (T, String, u32) {
    // Shrinking re-runs the property on many failing candidates; silence
    // the default panic hook so the report is not buried in backtraces.
    let quiet = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut steps = 0;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in gen.shrinks(&current) {
            steps += 1;
            if let CaseResult::Fail(m) = run_case(prop, &cand) {
                current = cand;
                msg = m;
                continue 'outer; // restart from the simpler value
            }
            if steps >= cfg.max_shrink_steps {
                break;
            }
        }
        break; // no candidate fails: `current` is locally minimal
    }
    panic::set_hook(quiet);
    (current, msg, steps)
}

/// Fails the surrounding property when `cond` is false.
///
/// Unlike `assert!`, this returns an `Err` instead of panicking, which
/// keeps shrinking quiet and the failure message structured.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the surrounding property when the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: `{} == {}`\n  left: {a:?}\n  right: {b:?}",
                stringify!($a), stringify!($b),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!($($fmt)+) + &format!("\n  left: {a:?}\n  right: {b:?}"));
        }
    }};
}

/// Fails the surrounding property when the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!(
                "assertion failed: `{} != {}`\n  both: {a:?}",
                stringify!($a), stringify!($b),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!($($fmt)+) + &format!("\n  both: {a:?}"));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn passing_property_runs_all_cases() {
        let hits = std::cell::Cell::new(0u32);
        let cfg = Config { cases: 37, ..Config::default() };
        check_with(cfg, "count_cases", &gen::u64s(0..10), |_| {
            hits.set(hits.get() + 1);
            Ok(())
        });
        assert_eq!(hits.get(), 37);
    }

    #[test]
    fn failing_property_shrinks_to_threshold() {
        let result = panic::catch_unwind(|| {
            check_with(
                Config { cases: 200, ..Config::default() },
                "shrink_to_boundary",
                &gen::u64s(0..10_000),
                |&v| {
                    if v >= 137 {
                        Err(format!("too big: {v}"))
                    } else {
                        Ok(())
                    }
                },
            );
        });
        let msg = panic_message(&*result.expect_err("property must fail"));
        assert!(
            msg.contains("minimal counterexample: 137"),
            "greedy shrink should land exactly on the boundary, got: {msg}"
        );
    }

    #[test]
    fn vector_counterexamples_shrink_structurally() {
        let result = panic::catch_unwind(|| {
            check_with(
                Config { cases: 200, ..Config::default() },
                "vec_shrink",
                &gen::vec_of(gen::u64s(0..100), 0..50),
                |v| {
                    prop_assert!(!v.iter().any(|&x| x >= 90), "contains a large element");
                    Ok(())
                },
            );
        });
        let msg = panic_message(&*result.expect_err("property must fail"));
        // The minimal failing vector is a single element of exactly 90.
        assert!(msg.contains("[90]"), "expected minimal vec [90], got: {msg}");
    }

    #[test]
    fn panicking_properties_are_caught_and_shrunk() {
        let result = panic::catch_unwind(|| {
            check_with(
                Config { cases: 100, ..Config::default() },
                "panic_shrink",
                &gen::vec_of(gen::u8s(..), 0..20),
                |v| {
                    let _ = v[5]; // index out of bounds for short vectors
                    Ok(())
                },
            );
        });
        let msg = panic_message(&*result.expect_err("property must fail"));
        assert!(msg.contains("minimal counterexample"), "got: {msg}");
    }

    #[test]
    fn same_seed_same_cases() {
        let collect = |seed: u64| {
            let mut seen = Vec::new();
            let cfg = Config { cases: 20, seed, ..Config::default() };
            let base = hash_str("determinism") ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for case in 0..cfg.cases {
                let mut rng = Rng::new(base.wrapping_add(u64::from(case)));
                seen.push(gen::u64s(..).sample(&mut rng));
            }
            seen
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn prop_assert_macros_return_err() {
        fn f(x: u32) -> Result<(), String> {
            prop_assert!(x < 10, "x too big: {x}");
            prop_assert_eq!(x % 2, 0);
            prop_assert_ne!(x, 4);
            Ok(())
        }
        assert!(f(2).is_ok());
        assert!(f(12).unwrap_err().contains("x too big"));
        assert!(f(3).unwrap_err().contains("left"));
        assert!(f(4).unwrap_err().contains("both"));
    }
}
