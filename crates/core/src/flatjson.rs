//! Flat-JSON record framing: the encoder-side [`seal`], the reader-side
//! [`unseal`], and the one parser ([`parse_flat`]) shared by the sealed
//! log ([`seallog`](crate::seallog)) and the `serve` daemon's request
//! parser.
//!
//! A record is a *flat* object: string and `u64` values only, no
//! nesting, no escapes, no floats (`f64`s travel as IEEE-754 bit
//! patterns under `.bits` keys), so one hand-rolled parser covers every
//! consumer and the workspace stays serde-free. A sealed record ends
//! with a `crc` field, FNV-1a-32 over every byte before it, so in-place
//! corruption is *detected* and the record skipped, never silently
//! decoded into wrong numbers.

/// The two value shapes the framing emits.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// A string value (no escapes supported by design).
    Str(String),
    /// An unsigned integer value.
    Num(u64),
}

impl JsonVal {
    /// The string payload, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            JsonVal::Num(_) => None,
        }
    }

    /// The numeric payload, if this is a number value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonVal::Num(n) => Some(*n),
            JsonVal::Str(_) => None,
        }
    }
}

/// FNV-1a (32-bit) over a record's byte prefix — the per-record checksum.
pub fn fnv32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Closes an open record body (`{"k":v,...` — no trailing brace) with
/// its checksum field: the crc covers every byte before the `,"crc"`.
pub fn seal(mut body: String) -> String {
    let crc = fnv32(body.as_bytes());
    body.push_str(&format!(",\"crc\":\"{crc:08x}\"}}"));
    body
}

/// Verifies and strips a record's trailing checksum, returning the body.
/// The crc must be written as [`seal`] writes it, exactly 8 lower-case
/// hex digits, so a line verifies only if it is byte for byte the seal
/// of its body.
///
/// # Errors
///
/// Returns a description (missing/malformed crc field, or the recorded
/// vs. computed values on a mismatch).
pub fn check_seal(line: &str) -> Result<&str, String> {
    let pos = line
        .rfind(",\"crc\":\"")
        .ok_or_else(|| "missing crc field".to_string())?;
    let recorded = line[pos + 8..]
        .strip_suffix("\"}")
        .filter(|hex| hex.len() == 8)
        .and_then(|hex| hex.bytes().try_fold(0u32, |crc, b| Some(crc << 4 | lower_hex(b)?)))
        .ok_or_else(|| "malformed crc field".to_string())?;
    let actual = fnv32(&line.as_bytes()[..pos]);
    if actual != recorded {
        return Err(format!("crc mismatch (recorded {recorded:08x}, computed {actual:08x})"));
    }
    Ok(&line[..pos])
}

/// The value of a lower-case hex digit, the only digits [`seal`] writes.
fn lower_hex(b: u8) -> Option<u32> {
    match b {
        b'0'..=b'9' => Some(u32::from(b - b'0')),
        b'a'..=b'f' => Some(u32::from(b - b'a' + 10)),
        _ => None,
    }
}

/// Verifies a sealed line ([`check_seal`]) and parses its fields,
/// without the `crc` field itself.
///
/// # Errors
///
/// Describes a failed seal or a body that does not parse.
pub fn unseal(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    check_seal(line)?;
    let mut fields = parse_flat(line).ok_or_else(|| "malformed record".to_string())?;
    fields.pop(); // the crc field check_seal just verified
    Ok(fields)
}

/// Parses one flat JSON object of string/u64 values (the only shape the
/// framing produces: no nesting, no escapes, no floats). Returns `None`
/// on anything else. Whitespace is tolerated only around the whole
/// object, not between tokens — the encoders never emit any.
pub fn parse_flat(line: &str) -> Option<Vec<(String, JsonVal)>> {
    let mut out = Vec::new();
    let bytes = line.trim().as_bytes();
    let mut i = 0usize;
    let eat = |i: &mut usize, b: u8| -> Option<()> {
        if bytes.get(*i) == Some(&b) {
            *i += 1;
            Some(())
        } else {
            None
        }
    };
    let string = |i: &mut usize| -> Option<String> {
        eat(i, b'"')?;
        let start = *i;
        while *i < bytes.len() && bytes[*i] != b'"' {
            if bytes[*i] == b'\\' {
                return None; // the encoders never escape
            }
            *i += 1;
        }
        let s = std::str::from_utf8(&bytes[start..*i]).ok()?.to_string();
        eat(i, b'"')?;
        Some(s)
    };
    let number = |i: &mut usize| -> Option<u64> {
        let start = *i;
        while *i < bytes.len() && bytes[*i].is_ascii_digit() {
            *i += 1;
        }
        std::str::from_utf8(&bytes[start..*i]).ok()?.parse().ok()
    };

    eat(&mut i, b'{')?;
    if bytes.get(i) == Some(&b'}') {
        return (i + 1 == bytes.len()).then_some(out);
    }
    loop {
        let key = string(&mut i)?;
        eat(&mut i, b':')?;
        let val = if bytes.get(i) == Some(&b'"') {
            JsonVal::Str(string(&mut i)?)
        } else {
            JsonVal::Num(number(&mut i)?)
        };
        out.push((key, val));
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => break,
            _ => return None,
        }
    }
    (i + 1 == bytes.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::stats::{RunResult, SimStats};
    use cmpsim_harness::gen::{select, vec_of};
    use cmpsim_harness::prop::check;

    /// A sealed store record, as the result store appends it.
    fn store_record() -> String {
        let result = RunResult {
            stats: SimStats { instructions: 1_200_000, mem_reads: 31, ..SimStats::default() },
            cycles: 987_654_321,
            clock_ghz: 5,
            events: 4_242,
            retired: 2_400_000,
            host_nanos: 7,
        };
        seal(crate::journal::entry_body("apsi", Variant::PrefetchCompression, 11, &result))
    }

    /// A serve request with every sweep field set.
    const REQUEST: &str = "{\"sweep\":\"s\",\"workloads\":\"apsi,mgrid\",\
        \"variants\":\"base,pf\",\"codec\":\"bdi\",\"cores\":4,\"seed\":11,\
        \"warmup\":2000,\"measure\":8000,\"threads\":2}";

    type Fields = Vec<(String, JsonVal)>;

    /// Feeds `line` to every reader; each returns `None`, `Err` or a
    /// value, and a panic fails the calling test.
    fn read_all(line: &str) -> (Option<Fields>, Result<Fields, String>) {
        let _ = check_seal(line);
        (parse_flat(line), unseal(line))
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        for full in [store_record(), REQUEST.to_string()] {
            assert!(parse_flat(&full).is_some(), "{full}");
            for cut in 0..full.len() {
                let prefix = &full[..cut];
                let (flat, sealed) = read_all(prefix);
                assert_eq!(flat, None, "{prefix:?}");
                assert!(check_seal(prefix).is_err() && sealed.is_err(), "{prefix:?}");
            }
        }
    }

    /// Each byte of both lines replaced by each byte of a JSON-significant
    /// alphabet, with every hex digit in both cases and a sign. FNV-1a
    /// changes with any one byte and the crc has one spelling, so a line
    /// unseals only if it is byte for byte the seal of its body: a
    /// substituted record only when the substitution left it unchanged.
    #[test]
    fn single_byte_substitutions_never_unseal_different_fields() {
        let record = store_record();
        let fields = unseal(&record).unwrap();
        for full in [record, REQUEST.to_string()] {
            for at in 0..full.len() {
                for &b in b"{}\":,\\ -+.0159aAbBcCdDeEfFx\x00\x7f" {
                    let mut bytes = full.clone().into_bytes();
                    bytes[at] = b;
                    let line = String::from_utf8(bytes).unwrap();
                    if let (_, Ok(got)) = read_all(&line) {
                        let body = check_seal(&line).unwrap();
                        assert_eq!(seal(body.to_string()), line);
                        assert_eq!(got, fields, "{line}");
                    }
                }
            }
        }
    }

    /// Spellings of a correct crc that `seal` never writes: upper-case
    /// digits, a `+` for a leading zero, and a leading zero left out.
    #[test]
    fn only_the_crc_seal_writes_verifies() {
        assert_eq!(seal("{\"k\":1".to_string()), "{\"k\":1,\"crc\":\"81e96db0\"}");
        assert_eq!(seal("{\"k\":10".to_string()), "{\"k\":10,\"crc\":\"02776080\"}");
        for line in [
            "{\"k\":1,\"crc\":\"81E96DB0\"}",
            "{\"k\":10,\"crc\":\"+2776080\"}",
            "{\"k\":10,\"crc\":\"2776080\"}",
        ] {
            assert_eq!(check_seal(line), Err("malformed crc field".to_string()), "{line}");
        }
    }

    #[test]
    fn long_numbers_parse_only_within_u64() {
        let mut digits: Vec<String> = (20..=40)
            .flat_map(|n| ["9".repeat(n), format!("1{}", "0".repeat(n - 1)), format!("{}7", "0".repeat(n - 1))])
            .collect();
        digits.extend([u64::MAX.to_string(), "18446744073709551616".to_string()]);
        for d in digits {
            let line = format!("{{\"measure\":{d}}}");
            let want = d.parse::<u64>().ok().map(|n| vec![("measure".to_string(), JsonVal::Num(n))]);
            assert_eq!(read_all(&line).0, want, "{line}");
            let sealed = seal(format!("{{\"measure\":{d}"));
            assert_eq!(unseal(&sealed).ok(), want, "{sealed}");
        }
    }

    #[test]
    fn duplicate_keys_are_kept_in_order() {
        let want = vec![("a".to_string(), JsonVal::Num(1)), ("a".to_string(), JsonVal::Str("x".into()))];
        assert_eq!(parse_flat("{\"a\":1,\"a\":\"x\"}"), Some(want.clone()));
        assert_eq!(unseal(&seal("{\"a\":1,\"a\":\"x\"".to_string())), Ok(want));
    }

    #[test]
    fn random_json_like_strings_never_panic() {
        let tokens = [
            "{", "}", "\"", ":", ",", "\\", " ", "0", "7", "a", "é", "\"k\"", "\"crc\"",
            ",\"crc\":\"", "ffffffff", "18446744073709551616", "\n",
        ];
        let gen = vec_of(select(tokens.to_vec()), 0..48);
        check("flatjson_readers_never_panic", &gen, |parts| {
            let line = parts.concat();
            let _ = read_all(&line);
            let _ = read_all(&seal(line));
            Ok(())
        });
    }

    #[test]
    fn parses_flat_objects() {
        let kvs = parse_flat("{\"a\":\"x\",\"n\":42}").unwrap();
        assert_eq!(kvs.len(), 2);
        assert_eq!(kvs[0].1.as_str(), Some("x"));
        assert_eq!(kvs[1].1.as_u64(), Some(42));
        assert_eq!(parse_flat("{}"), Some(vec![]));
        assert!(parse_flat("{\"a\":").is_none());
        assert!(parse_flat("{\"a\":1} trailing").is_none());
        assert!(parse_flat("{\"a\":\"esc\\\"aped\"}").is_none(), "escapes rejected");
    }

    #[test]
    fn seal_roundtrips_and_detects_corruption() {
        let line = seal("{\"k\":1".to_string());
        assert_eq!(check_seal(&line).unwrap(), "{\"k\":1");
        let mangled = line.replacen(":1", ":2", 1);
        assert!(check_seal(&mangled).unwrap_err().contains("crc mismatch"));
        assert!(check_seal("{\"k\":1}").unwrap_err().contains("missing crc"));
    }
}
