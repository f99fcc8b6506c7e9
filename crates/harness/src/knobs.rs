//! The one knob surface: every `CMPSIM_*` environment variable.
//!
//! Each knob is declared once in `KNOBS`: name, default, doc, and a
//! kind that carries its bounds. Each kind has one parse rule (a flag is
//! `0` or `1`, a count, millisecond or byte value is a bounded whole
//! number, a path is taken as written, a chaos plan is `<seed>:<rate>`).
//! Surrounding whitespace is ignored and an empty value means unset;
//! anything else that does not parse is a [`KnobError`], never a silent
//! fallback. [`knobs()`] parses the environment once per process, so
//! every reader sees the same values, and exits with status 2 on a
//! malformed one. [`help`] renders the table `serve --help` prints.

use crate::chaos::FaultPlan;
use std::ffi::OsStr;
use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// The resolved knobs. Each field is its knob's name without `CMPSIM_`,
/// lower-cased (`cell_deadline` is `CMPSIM_CELL_DEADLINE_MS`). An unset
/// knob is `None`, or `false` for a flag whose default is off; the
/// reader applies the default [`help`] lists.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Knobs {
    pub threads: Option<usize>,
    pub cell_deadline: Option<Duration>,
    pub warmup: Option<u64>,
    pub measure: Option<u64>,
    pub check: bool,
    pub chaos: Option<FaultPlan>,
    pub trace: bool,
    pub telemetry_dir: Option<PathBuf>,
    pub progress: Option<bool>,
    pub store: Option<PathBuf>,
    pub store_max_bytes: Option<u64>,
    pub access_log: Option<PathBuf>,
    pub pt_cases: Option<u32>,
    pub pt_seed: Option<u64>,
    pub write_golden: bool,
}

/// A knob whose value does not parse under its kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    /// The variable, e.g. `CMPSIM_THREADS`.
    pub name: &'static str,
    /// The value as set (lossily decoded when it is not UTF-8).
    pub value: String,
    /// Why the value was rejected.
    pub why: String,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?}: {}", self.name, self.value, self.why)
    }
}

impl std::error::Error for KnobError {}

/// How a knob's value parses, and the [`Knobs`] field it sets.
#[derive(Clone, Copy)]
enum Kind {
    Flag(fn(&mut Knobs, bool)),
    Count { min: u64, max: u64, set: fn(&mut Knobs, u64) },
    Millis { min: u64, max: u64, set: fn(&mut Knobs, Duration) },
    Bytes { min: u64, set: fn(&mut Knobs, u64) },
    Path(fn(&mut Knobs, PathBuf)),
    Chaos(fn(&mut Knobs, FaultPlan)),
}
use Kind::*;

struct Knob {
    name: &'static str,
    default: &'static str,
    doc: &'static str,
    kind: Kind,
}

const fn knob(name: &'static str, default: &'static str, doc: &'static str, kind: Kind) -> Knob {
    Knob { name, default, doc, kind }
}

/// Case counts stay far below `u32::MAX`.
const MAX_CASES: u64 = 1_000_000;

/// The most worker threads one grid sweep may ask for, through
/// `CMPSIM_THREADS` or a `serve` request's `threads` field.
pub const MAX_THREADS: u64 = 4096;

/// The longest warmup or measure length, in instructions per core, that
/// a run may ask for through `CMPSIM_WARMUP`, `CMPSIM_MEASURE` or a
/// `serve` request. The engine adds a core's retired count to the
/// measure length, and below this bound that sum cannot wrap.
pub const MAX_INSTRUCTIONS: u64 = 1 << 62;

/// Every knob, in the order [`help`] lists them.
#[rustfmt::skip]
static KNOBS: [Knob; 15] = [
    knob("CMPSIM_THREADS", "all cores", "worker threads per grid sweep",
        Count { min: 1, max: MAX_THREADS, set: |k, n| k.threads = Some(n as usize) }),
    // Past 24 h a deadline is a unit mistake.
    knob("CMPSIM_CELL_DEADLINE_MS", "off", "abandon a grid cell that runs longer",
        Millis { min: 1, max: 86_400_000, set: |k, d| k.cell_deadline = Some(d) }),
    knob("CMPSIM_WARMUP", "per program", "warmup instructions per core",
        Count { min: 0, max: MAX_INSTRUCTIONS, set: |k, n| k.warmup = Some(n) }),
    // Zero measures nothing, which the engine refuses.
    knob("CMPSIM_MEASURE", "per program", "measured instructions per core",
        Count { min: 1, max: MAX_INSTRUCTIONS, set: |k, n| k.measure = Some(n) }),
    knob("CMPSIM_CHECK", "0", "sampled invariant checks", Flag(|k, on| k.check = on)),
    knob("CMPSIM_CHAOS", "off", "seeded fault injection, rate in [0, 1]",
        Chaos(|k, plan| k.chaos = Some(plan))),
    knob("CMPSIM_TRACE", "0", "flight recorder and series", Flag(|k, on| k.trace = on)),
    knob("CMPSIM_TELEMETRY_DIR", "target/telemetry", "where trace series land",
        Path(|k, p| k.telemetry_dir = Some(p))),
    knob("CMPSIM_PROGRESS", "on a tty", "stderr heartbeat of grid sweeps",
        Flag(|k, on| k.progress = Some(on))),
    knob("CMPSIM_STORE", "target/store", "result store directory",
        Path(|k, p| k.store = Some(p))),
    // Zero would evict every other fingerprint on each publish.
    knob("CMPSIM_STORE_MAX_BYTES", "512 MiB", "store size budget (LRU eviction)",
        Bytes { min: 1, set: |k, n| k.store_max_bytes = Some(n) }),
    knob("CMPSIM_ACCESS_LOG", "none", "serve's sealed access log",
        Path(|k, p| k.access_log = Some(p))),
    knob("CMPSIM_PT_CASES", "128", "cases per property test",
        Count { min: 1, max: MAX_CASES, set: |k, n| k.pt_cases = Some(n as u32) }),
    knob("CMPSIM_PT_SEED", "0", "base seed of every property test",
        Count { min: 0, max: u64::MAX, set: |k, n| k.pt_seed = Some(n) }),
    knob("CMPSIM_WRITE_GOLDEN", "0", "grid_digest, codec_gate re-record baselines",
        Flag(|k, on| k.write_golden = on)),
];

impl Kind {
    /// Parses a trimmed, non-empty value into its field of `k`.
    fn apply(self, k: &mut Knobs, s: &str) -> Result<(), String> {
        match self {
            Flag(set) => match s {
                "0" => set(k, false),
                "1" => set(k, true),
                _ => return Err("expected 0 or 1".to_string()),
            },
            Count { min, max, set } => set(k, bounded(s, min, max)?),
            Millis { min, max, set } => set(k, Duration::from_millis(bounded(s, min, max)?)),
            Bytes { min, set } => set(k, bounded(s, min, u64::MAX)?),
            Path(set) => set(k, PathBuf::from(s)),
            Chaos(set) => set(k, FaultPlan::parse(s)?),
        }
        Ok(())
    }

    /// The value column of the knob table.
    fn describe(self) -> String {
        let range = |min, max: u64| match (min, max) {
            (0, u64::MAX) => String::new(),
            (min, u64::MAX) => format!(" >= {min}"),
            (min, max) if max > 1 << 32 && max.is_power_of_two() => {
                format!(" {min}..=2^{}", max.trailing_zeros())
            }
            (min, max) => format!(" {min}..={max}"),
        };
        match self {
            Flag(_) => "0 or 1".to_string(),
            Count { min, max, .. } => format!("count{}", range(min, max)),
            Millis { min, max, .. } => format!("ms{}", range(min, max)),
            Bytes { min, .. } => format!("bytes{}", range(min, u64::MAX)),
            Path(_) => "path".to_string(),
            Chaos(_) => "<seed>:<rate>".to_string(),
        }
    }
}

/// A whole number in `min..=max`.
fn bounded(s: &str, min: u64, max: u64) -> Result<u64, String> {
    let n: u64 = s.parse().map_err(|e| format!("not a whole number ({e})"))?;
    if n < min || n > max {
        return Err(format!("outside {min}..={max}"));
    }
    Ok(n)
}

impl Knobs {
    /// Parses the `CMPSIM_*` variables among `vars`. Other names, and
    /// `CMPSIM_*` names that no knob declares, are skipped.
    ///
    /// # Errors
    ///
    /// A [`KnobError`] for the first declared knob whose value is not
    /// UTF-8 or does not parse under its kind.
    pub fn parse<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> Result<Knobs, KnobError>
    where
        K: AsRef<OsStr>,
        V: AsRef<OsStr>,
    {
        let mut knobs = Knobs::default();
        for (name, value) in vars {
            let name = name.as_ref().to_str();
            let Some(knob) = KNOBS.iter().find(|k| name == Some(k.name)) else { continue };
            let value = value.as_ref();
            let reject = |why: String| KnobError {
                name: knob.name,
                value: value.to_string_lossy().into_owned(),
                why,
            };
            let s = value.to_str().ok_or_else(|| reject("not valid UTF-8".to_string()))?.trim();
            if !s.is_empty() {
                knob.kind.apply(&mut knobs, s).map_err(reject)?;
            }
        }
        Ok(knobs)
    }
}

/// The process's knobs, parsed from the environment on first use.
///
/// A malformed value prints the [`KnobError`] and the knob table to
/// stderr and exits with status 2. `CMPSIM_*` names that no knob
/// declares draw one warning.
pub fn knobs() -> &'static Knobs {
    static PARSED: OnceLock<Knobs> = OnceLock::new();
    PARSED.get_or_init(|| {
        let vars: Vec<_> = std::env::vars_os().collect();
        let unknown: Vec<_> = vars
            .iter()
            .map(|(name, _)| name.to_string_lossy())
            .filter(|name| name.starts_with("CMPSIM_") && KNOBS.iter().all(|k| k.name != *name))
            .collect();
        if !unknown.is_empty() {
            eprintln!("cmpsim: ignoring unknown knobs {} (see serve --help)", unknown.join(", "));
        }
        Knobs::parse(vars).unwrap_or_else(|e| {
            eprintln!("cmpsim: {e}\n\n{}", help());
            std::process::exit(2)
        })
    })
}

/// The knob table: what `serve --help` prints and README lists.
pub fn help() -> String {
    let row = |name: &str, value: &str, default: &str, doc: &str| {
        format!("  {name:<25}{value:<20}{default:<18}{doc}\n")
    };
    let mut s = String::from(
        "Environment knobs (unset or empty: the default; malformed: exit status 2):\n\n",
    );
    s += &row("NAME", "VALUE", "DEFAULT", "MEANING");
    for k in &KNOBS {
        s += &row(k.name, &k.kind.describe(), k.default, k.doc);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{pair, select, u8s, vec_of};
    use crate::prop::check;
    use std::os::unix::ffi::OsStrExt;

    fn parse1(name: &str, value: &[u8]) -> Result<Knobs, KnobError> {
        Knobs::parse([(OsStr::new(name), OsStr::from_bytes(value))])
    }

    /// One table of `(variable, value, expected)`: `Ok` is the parsed
    /// knobs, `Err` a fragment of the rejection reason.
    #[test]
    fn every_value_parses_or_is_rejected_by_its_kind() {
        let unset = || Ok(Knobs::default());
        let measure = |n| Ok(Knobs { measure: Some(n), ..Knobs::default() });
        let threads = |n| Ok(Knobs { threads: Some(n), ..Knobs::default() });
        let deadline =
            |ms| Ok(Knobs { cell_deadline: Some(Duration::from_millis(ms)), ..Knobs::default() });
        let budget = |n| Ok(Knobs { store_max_bytes: Some(n), ..Knobs::default() });
        let store = Knobs { store: Some("target/s".into()), ..Knobs::default() };
        let chaos = Knobs { chaos: Some(FaultPlan::new(7, 0.002)), ..Knobs::default() };
        let cases: Vec<(&str, &str, Result<Knobs, &str>)> = vec![
            // Values that used to fall back silently.
            ("CMPSIM_TRACE", "false", Err("expected 0 or 1")), // armed tracing
            ("CMPSIM_CHECK", "true", Err("expected 0 or 1")), // left checks off
            ("CMPSIM_WRITE_GOLDEN", "0", unset()), // re-recorded tests/golden
            ("CMPSIM_STORE", "", unset()),         // wrote store files into the cwd
            ("CMPSIM_PROGRESS", "", unset()),      // forced the heartbeat off on a tty
            ("CMPSIM_TRACE", "1", Ok(Knobs { trace: true, ..Knobs::default() })),
            ("CMPSIM_PROGRESS", "0", Ok(Knobs { progress: Some(false), ..Knobs::default() })),
            // Counts: whitespace trims, empty is unset, garbage is rejected.
            ("CMPSIM_MEASURE", "600000", measure(600_000)),
            ("CMPSIM_MEASURE", " 42\n", measure(42)),
            ("CMPSIM_MEASURE", "0", Err("outside 1..=")),
            ("CMPSIM_MEASURE", "4611686018427387904", measure(MAX_INSTRUCTIONS)),
            // Past the bound the engine's quota arithmetic wrapped.
            ("CMPSIM_MEASURE", "4611686018427387905", Err("outside 1..=4611686018427387904")),
            ("CMPSIM_MEASURE", "18446744073709551615", Err("outside 1..=4611686018427387904")),
            ("CMPSIM_WARMUP", "18446744073709551615", Err("outside 0..=4611686018427387904")),
            ("CMPSIM_MEASURE", "", unset()),
            ("CMPSIM_THREADS", "   \t", unset()),
            ("CMPSIM_MEASURE", "600k", Err("not a whole number")),
            ("CMPSIM_MEASURE", "abc", Err("not a whole number")),
            ("CMPSIM_MEASURE", "1.5", Err("not a whole number")),
            ("CMPSIM_MEASURE", "-3", Err("not a whole number")),
            ("CMPSIM_MEASURE", "0x10", Err("not a whole number")),
            ("CMPSIM_MEASURE", "1 000", Err("not a whole number")),
            ("CMPSIM_MEASURE", "\u{fffd}", Err("not a whole number")),
            ("CMPSIM_MEASURE", "18446744073709551616", Err("not a whole number")),
            ("CMPSIM_THREADS", "0", Err("outside 1..=4096")),
            ("CMPSIM_THREADS", "1", threads(1)),
            // Milliseconds (the cell deadline): zero and past 24 h rejected.
            ("CMPSIM_CELL_DEADLINE_MS", "250", deadline(250)),
            ("CMPSIM_CELL_DEADLINE_MS", " 1000 ", deadline(1000)),
            ("CMPSIM_CELL_DEADLINE_MS", "86400000", deadline(86_400_000)),
            ("CMPSIM_CELL_DEADLINE_MS", "", unset()),
            ("CMPSIM_CELL_DEADLINE_MS", "abc", Err("not a whole number")),
            ("CMPSIM_CELL_DEADLINE_MS", "12x", Err("not a whole number")),
            ("CMPSIM_CELL_DEADLINE_MS", "-5", Err("not a whole number")),
            ("CMPSIM_CELL_DEADLINE_MS", "1.5", Err("not a whole number")),
            ("CMPSIM_CELL_DEADLINE_MS", "0x10", Err("not a whole number")),
            ("CMPSIM_CELL_DEADLINE_MS", "1 000", Err("not a whole number")),
            ("CMPSIM_CELL_DEADLINE_MS", "0", Err("outside 1..=86400000")),
            ("CMPSIM_CELL_DEADLINE_MS", "86400001", Err("outside")),
            ("CMPSIM_CELL_DEADLINE_MS", "18446744073709551615", Err("outside")),
            ("CMPSIM_CELL_DEADLINE_MS", "99999999999999999999999999", Err("not a whole number")),
            // Bytes (the store budget): a plain count, never zero.
            ("CMPSIM_STORE_MAX_BYTES", "1048576", budget(1 << 20)),
            ("CMPSIM_STORE_MAX_BYTES", " 4096 ", budget(4096)),
            ("CMPSIM_STORE_MAX_BYTES", "", unset()),
            ("CMPSIM_STORE_MAX_BYTES", "  ", unset()),
            ("CMPSIM_STORE_MAX_BYTES", "512MiB", Err("not a whole number")),
            ("CMPSIM_STORE_MAX_BYTES", "-1", Err("not a whole number")),
            ("CMPSIM_STORE_MAX_BYTES", "0", Err("outside 1..=")),
            // Paths and chaos plans.
            ("CMPSIM_STORE", "target/s", Ok(store)),
            ("CMPSIM_CHAOS", " 7 : 0.002 ", Ok(chaos)),
            ("CMPSIM_CHAOS", "7", Err("expected <seed>:<rate>")),
            ("CMPSIM_CHAOS", "7:NaN", Err("outside [0, 1]")),
            ("CMPSIM_CHAOS", "7:inf", Err("outside [0, 1]")),
            ("CMPSIM_CHAOS", "7:-0.5", Err("outside [0, 1]")),
            ("CMPSIM_CHAOS", "-1:0.5", Err("bad seed")),
            // Names no knob declares are skipped.
            ("CMPSIM_METRICS", "0", unset()),
            ("CMPSIM_BENCH_ITERS", "3", unset()),
            ("CMPSIM_BENCH_WARMUP", "1", unset()),
            ("CMPSIM_BENCH_DIR", "target/bench", unset()),
            ("CMPSIM_GRID_DIR", "target/grid", unset()),
            ("PATH", "/bin", unset()),
        ];
        for (name, value, want) in cases {
            let got = parse1(name, value.as_bytes());
            match (&got, &want) {
                (Ok(k), Ok(w)) => assert_eq!(k, w, "{name}={value:?}"),
                (Err(e), Err(why)) => {
                    assert_eq!((e.name, e.value.as_str()), (name, value));
                    assert!(e.why.contains(why), "{name}={value:?}: {e} lacks {why:?}");
                }
                _ => panic!("{name}={value:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    /// A non-UTF-8 `CMPSIM_CHAOS` used to read as unset, running a clean
    /// sweep under a chaos request.
    #[test]
    fn non_utf8_values_are_rejected() {
        let e = parse1("CMPSIM_CHAOS", b"7:0.0\xff").unwrap_err();
        assert_eq!((e.name, e.why.as_str()), ("CMPSIM_CHAOS", "not valid UTF-8"));
        assert!(e.to_string().starts_with("CMPSIM_CHAOS=\"7:0.0\u{fffd}\""), "{e}");
    }

    /// Arbitrary `CMPSIM_*` names with hostile values: the parser returns
    /// knobs or an error naming the variable, and never panics.
    #[test]
    fn fuzzed_knobs_parse_or_name_the_variable() {
        let names: Vec<&str> = KNOBS
            .iter()
            .map(|k| k.name)
            .chain(["CMPSIM_", "CMPSIM_METRICS", "CMPSIM_threads", "CMPSIM_TRACE ", "HOME"])
            .collect();
        let seeds: Vec<Vec<u8>> = [
            &b""[..],
            b" \t\n",
            b"1",
            b"0 ",
            b"-1",
            b"+7",
            b"4097",
            b"18446744073709551616",
            b"7:nan",
            b"7:-inf",
            b"7:1e309",
            b"7:-0.0001",
            b"99999999999999999999:0.5",
            b"::",
            b"\xff\xfe",
            b"\xc3",
            &[b'9'; 4096],
        ]
        .iter()
        .map(|s| s.to_vec())
        .collect();
        let gen = pair(select(names), pair(select(seeds), vec_of(u8s(..), 0..8)));
        check("knobs_parse_never_panics", &gen, |(name, (seed, tail))| {
            let value = [seed.as_slice(), tail].concat();
            match parse1(name, &value) {
                Err(e) if e.name != *name => Err(format!("{name} rejected as {}", e.name)),
                Err(e) if e.value != OsStr::from_bytes(&value).to_string_lossy() => {
                    Err(format!("{name}: error carries {:?}", e.value))
                }
                _ => Ok(()),
            }
        });
    }

    #[test]
    fn readme_lists_exactly_the_declared_knobs() {
        let readme = include_str!("../../../README.md");
        assert!(
            readme.contains(&format!("```text\n{}```", help())),
            "README's knob table differs from the declared knobs; paste `serve --help`:\n{}",
            help()
        );
        assert_eq!(help().matches("\n  CMPSIM_").count(), 15);
    }
}
