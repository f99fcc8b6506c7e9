//! The one sealed-record log under the checkpoint journal, the result
//! store's data files and the serve daemon's access log: a header line,
//! then one sealed record per line.
//!
//! - **Header.** Each owner passes its exact header line, e.g.
//!   `{"cmpsim_log":1}`; the journal's and the store's name the sweep
//!   fingerprint. The first append to a missing or empty file writes it
//!   through [`write_atomic`], so no reader ever sees half a header.
//! - **Seal.** A record is a flat-JSON object whose last field, `crc`,
//!   is FNV-1a-32 over every byte before it ([`flatjson::seal`]).
//! - **Append.** One `write_all` of the sealed line and its `\n`,
//!   returning the line's byte range (the result store keeps it in
//!   memory and reads the line back with `SealedLog::read_at`).
//! - **Reader.** One loop streams the file a line at a time and checks
//!   each line alone. [`read`] and `SealedLog::scan` skip a line that
//!   is not UTF-8, fails its seal or does not parse, with its 1-based
//!   line number and reason, and only that record is lost;
//!   `SealedLog::lines` hands each line to its owner to check. An
//!   unterminated last line is a torn tail (a writer killed
//!   mid-append), not corruption. Reading never writes, so a log can be
//!   read while it is appended to.
//! - **Repair on open.** Only a writer opening the log repairs it, one
//!   way: a file whose first line is not the expected header is renamed
//!   to `<path>.stale`, plus `.<fp>` when that header names a
//!   fingerprint (never deleted; a later rotation of the same name
//!   replaces it, so stale files cannot pile up); a file holding at most
//!   part of the header is removed; a torn tail is cut back to the last
//!   `\n`.

use crate::flatjson::{self, JsonVal};
use cmpsim_harness::metrics::write_atomic;
use std::fs;
use std::io::{self, BufRead as _, Read as _, Seek as _, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Access-log format version, written into its header.
pub const LOG_VERSION: u64 = 1;

/// The access log's header line.
fn header_line() -> String {
    format!("{{\"cmpsim_log\":{LOG_VERSION}}}\n")
}

/// A filesystem operation on a log that failed.
#[derive(Debug)]
pub struct LogError {
    /// File the operation touched.
    pub path: PathBuf,
    /// What was being done (e.g. `"append"`, `"rotate"`).
    pub op: &'static str,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl LogError {
    /// Tags an I/O error with `path` and `op`, for `map_err`.
    pub(crate) fn at<'a>(p: &'a Path, op: &'static str) -> impl FnOnce(io::Error) -> Self + 'a {
        move |source| LogError { path: p.to_path_buf(), op, source }
    }
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed for {}: {}", self.op, self.path.display(), self.source)
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// One seal-verified record and the line it sits on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Record {
    /// 1-based line number (the header is line 1).
    pub(crate) line: usize,
    /// The record's fields, without the `crc` seal.
    pub(crate) fields: Vec<(String, JsonVal)>,
}

/// Everything `SealedLog::scan` read from a log.
#[derive(Debug, Default)]
pub(crate) struct Scan {
    /// Every intact record, in file order.
    pub(crate) records: Vec<Record>,
    /// Complete lines that failed, as `(1-based line number, reason)`.
    pub(crate) skipped: Vec<(usize, String)>,
    /// Whether the file ended in an unterminated (torn) line.
    pub(crate) torn_tail: bool,
}

/// A writer's handle on one sealed-record log.
#[derive(Debug)]
pub struct SealedLog {
    path: PathBuf,
    header: String,
    /// Bytes the open cut off as a torn tail or an incomplete header.
    pub(crate) cut_bytes: u64,
    /// Where the open moved a file with a foreign header.
    pub(crate) rotated_to: Option<PathBuf>,
    /// Opened by the first append.
    file: Option<fs::File>,
}

impl SealedLog {
    /// Opens the serve daemon's access log at `path` (header
    /// `{"cmpsim_log":1}`), repairing it by the rule in the module docs.
    /// Nothing is created until the first append.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the repair.
    pub fn open(path: impl Into<PathBuf>) -> Result<SealedLog, LogError> {
        Self::open_with(path, header_line())
    }

    /// Opens the log at `path` for appending under `header` (one line,
    /// `\n` included) and repairs the file by the rule in the module
    /// docs. Nothing is created until the first append.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the repair.
    pub(crate) fn open_with(path: impl Into<PathBuf>, header: String) -> Result<Self, LogError> {
        debug_assert!(header.ends_with('\n') && header.matches('\n').count() == 1);
        let path = path.into();
        let (cut_bytes, rotated_to) = repair(&path, &header)?;
        Ok(SealedLog { path, header, cut_bytes, rotated_to, file: None })
    }

    /// Seals and appends one record and returns the byte range of its
    /// line. `open_body` is a flat-JSON object without its closing brace
    /// (the [`flatjson::seal`] contract), e.g. `{"conn":1,"req":2`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the header write, the open or
    /// the append.
    pub fn append(&mut self, open_body: String) -> Result<Range<u64>, LogError> {
        let mut line = flatjson::seal(open_body);
        line.push('\n');
        let path = &self.path;
        if self.file.is_none() {
            let empty = match fs::metadata(path) {
                Ok(m) => m.len() == 0,
                Err(e) if e.kind() == io::ErrorKind::NotFound => true,
                Err(e) => return Err(LogError::at(path, "stat")(e)),
            };
            if empty {
                write_atomic(path, &self.header).map_err(LogError::at(path, "write header"))?;
            }
            let file = fs::OpenOptions::new().append(true).open(path);
            self.file = Some(file.map_err(LogError::at(path, "open"))?);
        }
        let file = self.file.as_mut().expect("opened above");
        let start = file.seek(SeekFrom::End(0)).map_err(LogError::at(path, "seek"))?;
        file.write_all(line.as_bytes()).map_err(LogError::at(path, "append"))?;
        Ok(start..start + line.len() as u64)
    }

    /// Reads every record of the log; a missing file reads as empty.
    ///
    /// # Errors
    ///
    /// Propagates the read, and reports a file that no longer starts
    /// with the header as `InvalidData`.
    pub(crate) fn scan(&self) -> Result<Scan, LogError> {
        match self.open_existing()? {
            Some(f) => scan_from(&self.path, f, &self.header),
            None => Ok(Scan::default()),
        }
    }

    /// Calls `each` with the byte range (its `\n` included) and the text
    /// (or why it is not UTF-8) of every complete line after the header,
    /// in file order, without checking seals; a missing file has none.
    ///
    /// # Errors
    ///
    /// As [`scan`](Self::scan).
    pub(crate) fn lines(
        &self,
        mut each: impl FnMut(Range<u64>, Result<&str, String>),
    ) -> Result<(), LogError> {
        let Some(f) = self.open_existing()? else { return Ok(()) };
        each_line(&self.path, f, &self.header, |_, span, text| each(span, text)).map(drop)
    }

    /// The line at `span` (a [`lines`](Self::lines) or
    /// [`append`](Self::append) range), without its `\n`.
    ///
    /// # Errors
    ///
    /// Describes why the bytes there are not one UTF-8 line.
    pub(crate) fn read_at(&self, span: Range<u64>) -> Result<String, String> {
        let len = span.end.saturating_sub(span.start);
        let mut buf = Vec::new();
        let f = fs::File::open(&self.path).map_err(|e| e.to_string())?;
        (&f).seek(SeekFrom::Start(span.start))
            .and_then(|_| (&f).take(len).read_to_end(&mut buf))
            .map_err(|e| e.to_string())?;
        if buf.len() as u64 != len || buf.pop() != Some(b'\n') {
            return Err("not a whole line".to_string());
        }
        String::from_utf8(buf).map_err(|_| "not UTF-8".to_string())
    }

    /// The file, or `None` when it is missing.
    fn open_existing(&self) -> Result<Option<fs::File>, LogError> {
        match fs::File::open(&self.path) {
            Ok(f) => Ok(Some(f)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(LogError::at(&self.path, "open")(e)),
        }
    }
}

/// What [`read`] recovered from the access log.
#[derive(Debug, Default)]
pub struct LogContents {
    /// Every intact record, in append order, as parsed flat-JSON fields.
    pub records: Vec<Vec<(String, JsonVal)>>,
    /// Whether the file ended in an unterminated (torn) line — the
    /// signature of a writer killed mid-append. The torn line is
    /// dropped, not parsed.
    pub torn_tail: bool,
    /// Complete lines dropped for bad UTF-8, a failed seal or an
    /// unparseable body (in-place corruption, not a torn tail).
    pub skipped: usize,
}

/// Reads the access log at `path` without touching it. The header line
/// is checked and not returned as a record.
///
/// # Errors
///
/// Propagates the file read; a missing or damaged header is reported as
/// `InvalidData` (the file is not an access log).
pub fn read(path: &Path) -> Result<LogContents, LogError> {
    let f = fs::File::open(path).map_err(LogError::at(path, "read"))?;
    let scan = scan_from(path, f, &header_line())?;
    Ok(LogContents {
        records: scan.records.into_iter().map(|r| r.fields).collect(),
        torn_tail: scan.torn_tail,
        skipped: scan.skipped.len(),
    })
}

/// The one reader: calls `each` with the 1-based line number, the byte
/// range (its `\n` included) and the text (or why it is not UTF-8) of
/// every complete line after `header`, in file order, holding one line
/// in memory at a time. Returns whether the file ended in a torn line.
///
/// # Errors
///
/// Propagates the read of `path`, and reports bytes that do not start
/// with `header` as `InvalidData`.
fn each_line(
    path: &Path,
    f: impl io::Read,
    header: &str,
    mut each: impl FnMut(usize, Range<u64>, Result<&str, String>),
) -> Result<bool, LogError> {
    let mut r = io::BufReader::new(f);
    let mut read_line = |buf: &mut Vec<u8>| {
        buf.clear();
        r.read_until(b'\n', buf).map_err(LogError::at(path, "read"))
    };
    let mut buf = Vec::new();
    read_line(&mut buf)?;
    if buf != header.as_bytes() {
        let why = io::Error::new(io::ErrorKind::InvalidData, "first line is not the log's header");
        return Err(LogError::at(path, "read header")(why));
    }
    let (mut line, mut start) = (1, buf.len() as u64);
    loop {
        let n = read_line(&mut buf)? as u64;
        if buf.pop() != Some(b'\n') {
            return Ok(n > 0);
        }
        line += 1;
        each(line, start..start + n, std::str::from_utf8(&buf).map_err(|_| "not UTF-8".into()));
        start += n;
    }
}

/// [`each_line`], unsealing and parsing every line into a [`Scan`].
fn scan_from(path: &Path, f: impl io::Read, header: &str) -> Result<Scan, LogError> {
    let mut scan = Scan::default();
    scan.torn_tail = each_line(path, f, header, |line, _, text| {
        match text.and_then(flatjson::unseal) {
            Ok(fields) => scan.records.push(Record { line, fields }),
            Err(why) => scan.skipped.push((line, why)),
        }
    })?;
    Ok(scan)
}

/// Repairs the log at `path` for a writer (see the module docs) and
/// returns the bytes it cut and where it rotated a foreign file.
fn repair(path: &Path, header: &str) -> Result<(u64, Option<PathBuf>), LogError> {
    let f = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, None)),
        Err(e) => return Err(LogError::at(path, "open")(e)),
    };
    let len = f.metadata().map_err(LogError::at(path, "stat"))?.len();
    let mut head = Vec::new();
    (&f).take(header.len().max(256) as u64)
        .read_to_end(&mut head)
        .map_err(LogError::at(path, "read header"))?;
    if head.starts_with(header.as_bytes()) {
        let mut last = [0u8];
        (&f).seek(SeekFrom::End(-1))
            .and_then(|_| (&f).read_exact(&mut last))
            .map_err(LogError::at(path, "read tail"))?;
        if last[0] == b'\n' {
            return Ok((0, None));
        }
        // Torn tail: keep everything up to the last '\n' (the header's
        // at the latest).
        let bytes = fs::read(path).map_err(LogError::at(path, "read"))?;
        let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        fs::OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|w| w.set_len(keep as u64))
            .map_err(LogError::at(path, "cut torn tail"))?;
        return Ok(((bytes.len() - keep) as u64, None));
    }
    if len < header.len() as u64 && header.as_bytes().starts_with(&head) {
        fs::remove_file(path).map_err(LogError::at(path, "remove"))?;
        return Ok((len, None));
    }
    let fp = head
        .split(|&b| b == b'\n')
        .next()
        .and_then(|first| std::str::from_utf8(first).ok())
        .and_then(flatjson::parse_flat)
        .and_then(|kvs| kvs.into_iter().find(|(k, _)| k == "fingerprint"))
        .and_then(|(_, v)| v.as_str().map(str::to_string))
        .filter(|fp| fp.len() == 16 && fp.bytes().all(|b| b.is_ascii_hexdigit()));
    let mut stale = path.as_os_str().to_os_string();
    stale.push(".stale");
    if let Some(fp) = fp {
        stale.push(format!(".{fp}"));
    }
    let stale = PathBuf::from(stale);
    fs::rename(path, &stale).map_err(LogError::at(path, "rotate"))?;
    eprintln!(
        "cmpsim: {} does not start with this log's header; rotated aside to {}",
        path.display(),
        stale.display()
    );
    Ok((0, Some(stale)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::journal::{self, Decoded, Journal, JournalEntry};
    use crate::stats::{LevelStats, RunResult, SimStats};
    use crate::store::{CellKey, ResultStore};
    use cmpsim_harness::gen::{vec_of, Gen};
    use cmpsim_harness::prop::check;

    fn temp_log(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cmpsim-seallog-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("log.jsonl")
    }

    fn field(rec: &[(String, JsonVal)], key: &str) -> Option<JsonVal> {
        rec.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    }

    #[test]
    fn append_then_read_roundtrips() {
        let path = temp_log("roundtrip");
        {
            let mut log = SealedLog::open(&path).unwrap();
            log.append("{\"req\":1,\"status\":\"ok\"".to_string()).unwrap();
            log.append("{\"req\":2,\"status\":\"err\"".to_string()).unwrap();
        }
        // Reopen appends (same header, no rotation).
        {
            let mut log = SealedLog::open(&path).unwrap();
            log.append("{\"req\":3,\"status\":\"ok\"".to_string()).unwrap();
        }
        let got = read(&path).unwrap();
        assert_eq!(got.records.len(), 3);
        assert!(!got.torn_tail);
        assert_eq!(got.skipped, 0);
        assert_eq!(field(&got.records[2], "req").unwrap().as_u64(), Some(3));
        assert_eq!(
            field(&got.records[1], "status").unwrap().as_str(),
            Some("err")
        );
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn kill_at_every_byte_offset_recovers_a_clean_prefix() {
        // The regression the tempfile+rename + sealed-append discipline
        // exists for: simulate a writer killed after every possible byte
        // of the file and require the reader to recover an intact prefix
        // — never an error, never a half-parsed record.
        let path = temp_log("kill");
        {
            let mut log = SealedLog::open(&path).unwrap();
            for i in 0..4u64 {
                log.append(format!("{{\"req\":{i},\"elapsed_us\":{}", 100 + i)).unwrap();
            }
        }
        let full = fs::read(&path).unwrap();
        let header_len = header_line().len();
        let cut_path = path.with_extension("cut");
        for cut in header_len..=full.len() {
            fs::write(&cut_path, &full[..cut]).unwrap();
            let got = read(&cut_path).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(got.skipped, 0, "cut at {cut}: a torn tail must not count as corrupt");
            assert_eq!(got.torn_tail, cut < full.len() && !full[..cut].ends_with(b"\n"));
            // Every recovered record is one of the originals, in order.
            for (i, rec) in got.records.iter().enumerate() {
                assert_eq!(field(rec, "req").unwrap().as_u64(), Some(i as u64));
            }
        }
        // Cut inside the header: the file is not (yet) a sealed log.
        for cut in 0..header_len {
            fs::write(&cut_path, &full[..cut]).unwrap();
            assert!(read(&cut_path).is_err(), "cut at {cut} inside header must not parse");
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn inplace_corruption_is_skipped_not_served() {
        let path = temp_log("corrupt");
        {
            let mut log = SealedLog::open(&path).unwrap();
            log.append("{\"req\":1,\"cells\":32".to_string()).unwrap();
            log.append("{\"req\":2,\"cells\":32".to_string()).unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen("\"req\":1,\"cells\":32", "\"req\":1,\"cells\":99", 1))
            .unwrap();
        let got = read(&path).unwrap();
        assert_eq!(got.skipped, 1, "flipped record fails its seal");
        assert_eq!(got.records.len(), 1);
        assert_eq!(field(&got.records[0], "req").unwrap().as_u64(), Some(2));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn foreign_file_is_rotated_aside() {
        let path = temp_log("foreign");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, "not a log\n").unwrap();
        let mut log = SealedLog::open(&path).unwrap();
        log.append("{\"req\":1".to_string()).unwrap();
        assert_eq!(read(&path).unwrap().records.len(), 1);
        let stale = {
            let mut s = path.as_os_str().to_os_string();
            s.push(".stale");
            PathBuf::from(s)
        };
        assert_eq!(fs::read_to_string(stale).unwrap(), "not a log\n", "preserved, not deleted");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    fn pinned_result() -> RunResult {
        let stats = SimStats {
            instructions: 77,
            capacity_ratio_sum: 0.1 + 0.2,
            l2: LevelStats { hits: 9, ..LevelStats::default() },
            ..SimStats::default()
        };
        RunResult { stats, cycles: 1234, clock_ghz: 5, events: 2468, retired: 3702, host_nanos: 1 }
    }

    const PINNED_FP: u64 = 0x0123_4567_89ab_cdef;
    const JOURNAL_HEADER: &str = r#"{"cmpsim_journal":4,"fingerprint":"0123456789abcdef"}
"#;
    const STORE_HEADER: &str = r#"{"cmpsim_store":1,"fingerprint":"0123456789abcdef"}
"#;
    const LOG_HEADER: &str = r#"{"cmpsim_log":1}
"#;
    /// A journal entry, which is also the store's record.
    const ENTRY: &str = concat!(
        r#"{"workload":"apsi","variant":"pf","seed":11,"cycles":1234,"clock_ghz":5,"#,
        r#""events":2468,"retired":3702,"host_nanos":1,"stats.instructions":77,"#,
        r#""stats.l1i.accesses":0,"stats.l1i.hits":0,"stats.l1i.demand_misses":0,"#,
        r#""stats.l1i.prefetch_hits":0,"stats.l1i.prefetches_issued":0,"#,
        r#""stats.l1i.prefetch_fills":0,"stats.l1i.useless_prefetch_evictions":0,"#,
        r#""stats.l1d.accesses":0,"stats.l1d.hits":0,"stats.l1d.demand_misses":0,"#,
        r#""stats.l1d.prefetch_hits":0,"stats.l1d.prefetches_issued":0,"#,
        r#""stats.l1d.prefetch_fills":0,"stats.l1d.useless_prefetch_evictions":0,"#,
        r#""stats.l2.accesses":0,"stats.l2.hits":9,"stats.l2.demand_misses":0,"#,
        r#""stats.l2.prefetch_hits":0,"stats.l2.prefetches_issued":0,"#,
        r#""stats.l2.prefetch_fills":0,"stats.l2.useless_prefetch_evictions":0,"#,
        r#""stats.l2_compressed_hits":0,"stats.l2_hit_latency_sum":0,"#,
        r#""stats.l2_hit_latency_count":0,"stats.l2_victim_tag_hits":0,"#,
        r#""stats.harmful_prefetch_detections":0,"#,
        r#""stats.capacity_ratio_sum.bits":4599075939470750516,"#,
        r#""stats.capacity_ratio_samples":0,"stats.link.total_bytes":0,"#,
        r#""stats.link.data_bytes":0,"stats.link.prefetch_bytes":0,"stats.link.messages":0,"#,
        r#""stats.link.queue_delay_cycles":0,"stats.link.busy_cycles":0,"#,
        r#""stats.link.dropped_messages":0,"stats.link.corrupted_messages":0,"#,
        r#""stats.mem_reads":0,"stats.mem_writes":0,"stats.coherence.invalidations":0,"#,
        r#""stats.coherence.recalls":0,"stats.coherence.upgrades":0,"#,
        r#""stats.coherence.inclusion_recalls":0,"stats.dropped_prefetches":0,"#,
        r#""stats.faults.codec_faults_injected":0,"stats.faults.codec_faults_detected":0,"#,
        r#""stats.faults.fault_recoveries":0,"stats.faults.lines_quarantined":0,"#,
        r#""stats.faults.link_faults_injected":0,"stats.faults.link_retransmits":0,"#,
        r#""stats.faults.mem_stall_bursts":0,"stats.faults.mem_stall_cycles":0,"#,
        r#""stats.faults.dir_messages_lost":0,"stats.faults.dir_retries":0,"crc":"006bebeb"}"#,
        "\n"
    );
    const FAILURE: &str = r#"{"failure":"apsi","variant":"base","seed":11,"error":"livelock at cycle 5:   core '0'","crc":"8ac7fd14"}
"#;
    /// The index sidecar older builds wrote beside each data file; a store
    /// holding one still reads back.
    const INDEX: &str = r#"{"workload":"apsi","variant":"pf","seed":11,"offset":52,"len":1776}
"#;
    const ACCESS: &str = r#"{"conn":1,"req":2,"kind":"sweep","sweep":"hit","cells":4,"elapsed_us":400,"crc":"fb575344"}
"#;
    const ACCESS_BODY: &str =
        r#"{"conn":1,"req":2,"kind":"sweep","sweep":"hit","cells":4,"elapsed_us":400"#;

    /// Each header line and one sealed record of each kind, byte for
    /// byte as the formats were before the three owners shared this
    /// log; and files holding those bytes read back.
    #[test]
    fn on_disk_formats_are_pinned() {
        let dir = temp_log("pinned").parent().unwrap().to_path_buf();
        let key = CellKey::new("apsi", Variant::Prefetch, 11);
        let entry = JournalEntry {
            workload: "apsi".into(),
            variant: Variant::Prefetch,
            seed: 11,
            result: pinned_result(),
        };

        let j = Journal::new(dir.join("journal.jsonl"), PINNED_FP);
        j.append(&entry).unwrap();
        j.append_failure("apsi", Variant::Base, 11, "livelock at cycle 5:\n  core \"0\"").unwrap();
        let journal_bytes = [JOURNAL_HEADER, ENTRY, FAILURE].concat();
        assert_eq!(fs::read_to_string(j.path()).unwrap(), journal_bytes);

        let store = ResultStore::with_capacity(dir.join("store"), u64::MAX);
        store.publish(PINNED_FP, &key, &pinned_result()).unwrap();
        let data = dir.join("store").join(format!("{PINNED_FP:016x}.jsonl"));
        assert_eq!(fs::read_to_string(&data).unwrap(), [STORE_HEADER, ENTRY].concat());
        assert!(!data.with_extension("idx").exists(), "the data file is the store's one format");

        let mut log = SealedLog::open(dir.join("access.jsonl")).unwrap();
        log.append(ACCESS_BODY.to_string()).unwrap();
        let access = fs::read_to_string(dir.join("access.jsonl")).unwrap();
        assert_eq!(access, [LOG_HEADER, ACCESS].concat());

        // The same bytes, written by hand, read back through every owner.
        let old = dir.join("old");
        fs::create_dir_all(old.join("store")).unwrap();
        fs::write(old.join("journal.jsonl"), &journal_bytes).unwrap();
        let snap = Journal::new(old.join("journal.jsonl"), PINNED_FP).load().unwrap();
        assert_eq!(snap.entries, vec![entry]);
        assert_eq!(snap.failures[&("apsi".to_string(), Variant::Base, 11)], 1);
        assert!(snap.skipped.is_empty());
        let old_data = old.join("store").join(format!("{PINNED_FP:016x}.jsonl"));
        fs::write(&old_data, [STORE_HEADER, ENTRY].concat()).unwrap();
        fs::write(old_data.with_extension("idx"), INDEX).unwrap();
        let store = ResultStore::with_capacity(old.join("store"), u64::MAX);
        assert_eq!(store.get(PINNED_FP, &key), Some(pinned_result()));
        assert_eq!(store.stats().corrupt_skipped, 0);
        assert!(old_data.with_extension("idx").exists(), "an old sidecar is left alone");
        fs::write(old.join("access.jsonl"), [LOG_HEADER, ACCESS].concat()).unwrap();
        let got = read(&old.join("access.jsonl")).unwrap();
        assert_eq!(got.records, vec![flatjson::parse_flat(&format!("{ACCESS_BODY}}}")).unwrap()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reading_never_writes() {
        let path = temp_log("read-only");
        {
            let mut log = SealedLog::open(&path).unwrap();
            log.append("{\"req\":1".to_string()).unwrap();
        }
        let mut torn = fs::read(&path).unwrap();
        torn.extend_from_slice(b"{\"req\":2,\"cr");
        fs::write(&path, &torn).unwrap();
        let got = read(&path).unwrap();
        assert!(got.torn_tail);
        assert_eq!(got.records.len(), 1);
        assert_eq!(fs::read(&path).unwrap(), torn, "the reader left the torn tail alone");
        // The writer's open is what cuts it.
        let log = SealedLog::open(&path).unwrap();
        assert_eq!(log.cut_bytes, 12);
        assert_eq!(fs::read(&path).unwrap(), &torn[..torn.len() - 12]);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn foreign_header_fingerprint_names_the_stale_file() {
        let path = temp_log("foreign-fp");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let foreign = "{\"cmpsim_journal\":3,\"fingerprint\":\"00000000000000aa\"}\n";
        fs::write(&path, foreign).unwrap();
        let log = SealedLog::open(&path).unwrap();
        let stale = path.parent().unwrap().join("log.jsonl.stale.00000000000000aa");
        assert_eq!(log.rotated_to.as_deref(), Some(stale.as_path()));
        assert_eq!(fs::read_to_string(&stale).unwrap(), foreign);
        // A header cut short by a kill is not foreign: nothing to keep.
        fs::write(&path, &LOG_HEADER[..7]).unwrap();
        let log = SealedLog::open(&path).unwrap();
        assert_eq!((log.cut_bytes, log.rotated_to), (7, None));
        assert!(!path.exists());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// One hostile edit of a log's bytes. Positions wrap modulo the
    /// current length (or line count), so every value is meaningful and
    /// shrinking moves them toward the start of the file.
    #[derive(Clone, Debug, PartialEq)]
    enum Mutation {
        Truncate(usize),
        Overwrite(usize, u8),
        DuplicateLine(usize),
        InsertHugeLine(usize),
    }

    fn mutation() -> Gen<Mutation> {
        Gen::new(
            |rng| {
                let at = rng.below(1 << 20) as usize;
                match rng.below(4) {
                    0 => Mutation::Truncate(at),
                    1 => {
                        let nasty = [0xff, 0x00, b'\n', b'"'];
                        let byte = if rng.chance(0.5) {
                            nasty[rng.below(4) as usize]
                        } else {
                            rng.below(256) as u8
                        };
                        Mutation::Overwrite(at, byte)
                    }
                    2 => Mutation::DuplicateLine(at),
                    _ => Mutation::InsertHugeLine(at),
                }
            },
            |m| {
                let (Mutation::Truncate(at)
                | Mutation::Overwrite(at, _)
                | Mutation::DuplicateLine(at)
                | Mutation::InsertHugeLine(at)) = *m;
                if at == 0 {
                    return Vec::new();
                }
                vec![match *m {
                    Mutation::Truncate(_) => Mutation::Truncate(at / 2),
                    Mutation::Overwrite(_, b) => Mutation::Overwrite(at / 2, b),
                    Mutation::DuplicateLine(_) => Mutation::DuplicateLine(at / 2),
                    Mutation::InsertHugeLine(_) => Mutation::InsertHugeLine(at / 2),
                }]
            },
        )
    }

    fn mutate(mut bytes: Vec<u8>, mutations: &[Mutation], huge: &[u8]) -> Vec<u8> {
        for m in mutations {
            let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
            bytes = match *m {
                Mutation::Truncate(at) => bytes[..at % (bytes.len() + 1)].to_vec(),
                Mutation::Overwrite(at, b) if !bytes.is_empty() => {
                    let at = at % bytes.len();
                    let mut out = bytes.clone();
                    out[at] = b;
                    out
                }
                Mutation::DuplicateLine(at) if !lines.is_empty() => {
                    let at = at % lines.len();
                    let mut out = lines[..=at].concat();
                    out.extend_from_slice(lines[at]);
                    out.extend(lines[at + 1..].concat());
                    out
                }
                Mutation::InsertHugeLine(at) => {
                    let at = at % (lines.len() + 1);
                    [&lines[..at].concat()[..], huge, &lines[at..].concat()[..]].concat()
                }
                _ => bytes,
            };
        }
        bytes
    }

    /// Hostile input for the one reader and the journal's record decoder:
    /// a valid journal, then a shrinking list of truncations, byte
    /// overwrites (`0xff`, `0x00`, `\n`, ...), duplicated lines and
    /// inserted lines of over 1 MiB. The reader never panics, fails only
    /// on a damaged header, returns only seal-verified original records,
    /// and returns every original whose line and preceding newline
    /// survived.
    #[test]
    fn reader_survives_hostile_bytes() {
        let header = format!("{{\"cmpsim_journal\":4,\"fingerprint\":\"{:016x}\"}}\n", 7);
        let entries: Vec<JournalEntry> = (0..3u64)
            .map(|i| JournalEntry {
                workload: ["apsi", "mgrid", "zeus"][i as usize].into(),
                variant: Variant::all()[i as usize],
                seed: 11 + i,
                result: RunResult { cycles: 1000 + i, ..pinned_result() },
            })
            .collect();
        let failures = [("art", Variant::Base, 5), ("jbb", Variant::Prefetch, 6)];
        let mut originals: Vec<String> = entries.iter().map(journal::encode_entry).collect();
        originals.extend(failures.iter().map(|&(w, v, s)| {
            flatjson::seal(journal::failure_body(w, v, s, "timed out after 5 ms"))
        }));
        let mut valid = header.clone().into_bytes();
        for line in &originals {
            valid.extend_from_slice(line.as_bytes());
            valid.push(b'\n');
        }
        let original_fields: Vec<_> =
            originals.iter().map(|l| flatjson::unseal(l).unwrap()).collect();
        let huge = format!("{{\"workload\":\"{}\",\"crc\":\"00000000\"}}\n", "x".repeat(1 << 20));

        check("sealed_log_reader_survives_hostile_bytes", &vec_of(mutation(), 0..=4), |muts| {
            let bytes = mutate(valid.clone(), muts, huge.as_bytes());
            for line in bytes.split(|&b| b == b'\n') {
                let Ok(text) = std::str::from_utf8(line) else { continue };
                match journal::decode_line(text) {
                    Ok(Decoded::Entry(e)) if !entries.contains(&*e) => {
                        return Err(format!("decoded an entry that was never written: {e:?}"));
                    }
                    Ok(Decoded::Failure { workload, variant, seed })
                        if !failures.contains(&(workload.as_str(), variant, seed)) =>
                    {
                        return Err(format!("decoded a failure never written: {workload}"));
                    }
                    _ => {}
                }
            }
            let header_intact = bytes.starts_with(header.as_bytes());
            let Ok(scan) = scan_from(Path::new("hostile"), &bytes[..], &header) else {
                return if header_intact { Err("intact header, yet Err".into()) } else { Ok(()) };
            };
            if !header_intact {
                return Err("damaged header, yet read".into());
            }
            for rec in &scan.records {
                let line =
                    bytes.split(|&b| b == b'\n').nth(rec.line - 1).ok_or("line past the end")?;
                let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
                flatjson::check_seal(text).map_err(|e| format!("line {}: {e}", rec.line))?;
                if !original_fields.contains(&rec.fields) {
                    return Err(format!("line {} is not an original record", rec.line));
                }
            }
            let mut complete: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
            complete.pop(); // the bytes after the last '\n'
            for (i, line) in complete.iter().enumerate().skip(1) {
                let Some(o) = originals.iter().position(|o| o.as_bytes() == *line) else {
                    continue;
                };
                if !scan.records.iter().any(|r| r.line == i + 1 && r.fields == original_fields[o]) {
                    return Err(format!("intact original on line {} was not returned", i + 1));
                }
            }
            Ok(())
        });
    }
}
