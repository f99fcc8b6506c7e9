//! Integer knobs from the environment.
//!
//! Every `CMPSIM_*` count (run lengths, iteration counts, ring sizes,
//! seeds, worker threads) is read through [`env_u64`]. Unset or empty
//! means "use the default"; a value that is set but is not a count warns
//! on stderr, naming the variable and the value, and then falls back to
//! the default, so `CMPSIM_MEASURE=600k` is reported instead of silently
//! running the standard length.

/// The value of the count `key`, or `None` when it is unset, empty, or
/// malformed (which warns on stderr). Surrounding whitespace is ignored.
pub fn env_u64(key: &str) -> Option<u64> {
    env_at_least(key, 0)
}

/// [`env_u64`] that also rejects values below `min` as malformed.
pub(crate) fn env_at_least(key: &str, min: u64) -> Option<u64> {
    let raw = std::env::var_os(key)?;
    let raw = raw.to_string_lossy();
    parse_at_least(&raw, min).unwrap_or_else(|why| {
        eprintln!("cmpsim: ignoring {key}={raw:?}: {why}; using the default");
        None
    })
}

/// Parses a count of at least `min`. `Ok(None)` is an empty (or
/// all-whitespace) value; `Err` says why the value is not a count.
fn parse_at_least(raw: &str, min: u64) -> Result<Option<u64>, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(None);
    }
    let v: u64 = raw.parse().map_err(|e| format!("not a whole number ({e})"))?;
    if v < min {
        return Err(format!("must be at least {min}"));
    }
    Ok(Some(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counts_and_trims_whitespace() {
        assert_eq!(parse_at_least("600000", 0), Ok(Some(600_000)));
        assert_eq!(parse_at_least(" 42\n", 0), Ok(Some(42)));
        assert_eq!(parse_at_least("0", 0), Ok(Some(0)));
        assert_eq!(parse_at_least(&u64::MAX.to_string(), 0), Ok(Some(u64::MAX)));
    }

    #[test]
    fn empty_and_whitespace_mean_unset() {
        assert_eq!(parse_at_least("", 0), Ok(None));
        assert_eq!(parse_at_least("   \t", 1), Ok(None));
    }

    #[test]
    fn rejects_garbage_overflow_and_values_below_the_minimum() {
        for garbage in ["600k", "abc", "1.5", "-3", "0x10", "1 000", "\u{fffd}"] {
            assert!(parse_at_least(garbage, 0).is_err(), "{garbage:?} should be rejected");
        }
        assert!(parse_at_least("18446744073709551616", 0).is_err(), "u64 overflow");
        assert!(parse_at_least("0", 1).is_err(), "zero threads is malformed");
        assert_eq!(parse_at_least("1", 1), Ok(Some(1)));
    }

    #[test]
    fn unset_variable_reads_as_none() {
        assert_eq!(env_u64("CMPSIM_TEST_KNOB_THAT_IS_NEVER_SET"), None);
    }
}
