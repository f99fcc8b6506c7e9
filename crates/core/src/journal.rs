//! Bit-exact checkpoint journal for grid sweeps.
//!
//! `run_grid_resilient` appends one record per completed cell as it
//! finishes, so a run killed mid-sweep can be re-invoked with the same
//! journal and skip the cells that already ran. The contract is
//! **bit-identity**: a journaled [`RunResult`] decodes to exactly the
//! value the simulation produced — every counter is stored as its `u64`
//! value and the one `f64` field as its IEEE-754 bit pattern — so a
//! resumed grid compares equal (`==`) to an uninterrupted one. The
//! encoder and the decoder walk one field table, `stats::record_fields`,
//! so they cannot skew; the store's records are the same encoding.
//!
//! The journal is a [`seallog`](crate::seallog) log whose header names
//! the format version and the sweep [`fingerprint`]; each record is one
//! completed cell or one cell failure:
//!
//! ```text
//! {"cmpsim_journal":4,"fingerprint":"1a2b3c..."}
//! {"workload":"apsi","variant":"pf+compr","seed":11,"cycles":...,"crc":"9f1e22ab"}
//! {"failure":"mgrid","variant":"base","seed":11,"error":"...","crc":"00c41f77"}
//! ```
//!
//! [`Journal::load`] and [`Journal::append`] open the log as its writer,
//! so the log's one repair rule applies: a journal of another sweep is
//! rotated aside to `<path>.stale.<its fingerprint>` (resuming it would
//! mix results of another configuration; deleting it would destroy that
//! sweep's cells), and a torn tail is cut back so only the torn cell
//! re-runs. A record that is not UTF-8, fails its seal or does not
//! decode is skipped with its line number; only that cell re-runs.
//!
//! The fingerprint hashes the base [`SystemConfig`] and [`SimLength`] —
//! deliberately *not* the workload or variant lists, so a journal from a
//! partial sweep is reusable by a larger sweep over the same
//! configuration. Cell *failures* are journaled too: a cell that has
//! failed [`MAX_CELL_FAILURES`] times is quarantined, and resume skips
//! it with an explicit error instead of re-running it forever.

use crate::config::{PrefetchMode, SystemConfig, Variant};
use crate::experiment::SimLength;
use crate::flatjson::{self, JsonVal};
use crate::seallog::{LogError, SealedLog};
use crate::stats::{record_fields, RunResult};
use cmpsim_harness::knobs;
use cmpsim_link::LinkBandwidth;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
#[cfg(test)]
use {crate::flatjson::check_seal, std::fs};

/// Journal format version (bump on any encoding or fingerprint-semantics
/// change; old files are then rotated aside via the header check).
///
/// v2: added the simulator-throughput fields (`events`, `retired`,
/// `host_nanos`) to each cell line.
///
/// v3: per-record `crc` checksums, journaled failure records (feeding
/// the quarantine list), and the chaos-engine fault counters.
///
/// v4: [`fingerprint`] became an explicit structural field-by-field hash
/// (it previously hashed the config's `Debug` rendering, so any derive
/// or field-order refactor silently invalidated every stored result);
/// the same fingerprint now also keys the persistent result store.
pub(crate) const VERSION: u64 = 4;

/// Journaled failures of one cell before resume quarantines it.
pub const MAX_CELL_FAILURES: u32 = 2;

/// Everything [`Journal::load`] recovered from disk.
#[derive(Debug, Default)]
pub struct JournalSnapshot {
    /// Successfully decoded (and checksum-verified) completed cells, in
    /// file order; on duplicates the caller's last-wins insert applies.
    pub entries: Vec<JournalEntry>,
    /// Journaled failure counts per `(workload, variant, seed)`.
    pub failures: HashMap<(String, Variant, u64), u32>,
    /// Undecodable lines as `(1-based line number, reason)`; each one
    /// only means that cell re-runs.
    pub skipped: Vec<(usize, String)>,
    /// Whether a torn tail (kill mid-append) was truncated away.
    pub repaired_tail: bool,
}

impl JournalSnapshot {
    /// Journaled failure count that puts `(workload, variant, seed)` in
    /// quarantine, or `None` if the cell may still run.
    pub fn quarantined(&self, workload: &str, variant: Variant, seed: u64) -> Option<u32> {
        self.failures
            .get(&(workload.to_string(), variant, seed))
            .copied()
            .filter(|&n| n >= MAX_CELL_FAILURES)
    }
}

/// One completed cell read back from a journal. `workload` is owned
/// because the file outlives any `&'static` workload table.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Workload name.
    pub workload: String,
    /// Configuration variant.
    pub variant: Variant,
    /// Seed the cell ran with.
    pub seed: u64,
    /// The journaled result, bit-identical to the original run.
    pub result: RunResult,
}

/// An append-only checkpoint journal bound to one sweep fingerprint.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    fingerprint: u64,
}

impl Journal {
    /// Binds a journal file to a sweep fingerprint (see [`fingerprint`]).
    /// Nothing is touched on disk until [`load`](Self::load) or
    /// [`append`](Self::append).
    pub fn new(path: impl Into<PathBuf>, fingerprint: u64) -> Self {
        Journal { path: path.into(), fingerprint }
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Opens the journal's log as its writer, repairing it.
    fn open(&self) -> Result<SealedLog, LogError> {
        let header = format!(
            "{{\"cmpsim_journal\":{VERSION},\"fingerprint\":\"{:016x}\"}}\n",
            self.fingerprint
        );
        SealedLog::open_with(&self.path, header)
    }

    /// Reads back everything recoverable from the journal. Opening it
    /// repairs it first (see the module docs): a journal of another
    /// sweep is rotated aside and yields an empty snapshot, as does a
    /// missing file, and a torn tail is cut off. Corrupt lines are
    /// skipped individually with their line number and reason.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn load(&self) -> Result<JournalSnapshot, LogError> {
        let log = self.open()?;
        let scan = log.scan()?;
        let mut snap = JournalSnapshot {
            skipped: scan.skipped,
            repaired_tail: log.cut_bytes > 0,
            ..JournalSnapshot::default()
        };
        for rec in scan.records {
            match decode_fields(rec.fields) {
                Ok(Decoded::Entry(e)) => snap.entries.push(*e),
                Ok(Decoded::Failure { workload, variant, seed }) => {
                    *snap.failures.entry((workload, variant, seed)).or_insert(0) += 1;
                }
                Err(reason) => snap.skipped.push((rec.line, reason)),
            }
        }
        snap.skipped.sort_by_key(|&(line, _)| line);
        Ok(snap)
    }

    /// [`load`](Self::load), reduced to the completed cells (the v2
    /// shape most callers want).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    #[cfg(test)]
    pub fn load_or_reset(&self) -> Result<Vec<JournalEntry>, LogError> {
        Ok(self.load()?.entries)
    }

    /// Appends one completed cell, creating the file (with its header)
    /// on first use. Each call is one `write_all` of one line, so a kill
    /// between calls loses at most the in-flight cell.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, tagged with the path and operation.
    pub fn append(&self, e: &JournalEntry) -> Result<(), LogError> {
        self.open()?.append(entry_body(&e.workload, e.variant, e.seed, &e.result)).map(drop)
    }

    /// Appends one cell-failure record; [`MAX_CELL_FAILURES`] of these
    /// for the same cell quarantine it on the next resume.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, tagged with the path and operation.
    pub fn append_failure(
        &self,
        workload: &str,
        variant: Variant,
        seed: u64,
        error: &str,
    ) -> Result<(), LogError> {
        self.open()?.append(failure_body(workload, variant, seed, error)).map(drop)
    }
}

/// Incremental FNV-1a/64 over explicitly named fields: each field is
/// folded as `name ':' value-bytes ';'`, so reordering fields in the
/// *struct* cannot change the hash (the hasher controls the order), and
/// two adjacent fields can never collide by concatenation.
pub(crate) struct StructHash {
    h: u64,
}

impl StructHash {
    pub(crate) fn new() -> Self {
        StructHash { h: 0xcbf2_9ce4_8422_2325 }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.bytes(name.as_bytes());
        self.bytes(b":");
        self.bytes(&v.to_le_bytes());
        self.bytes(b";");
        self
    }

    pub(crate) fn bool(&mut self, name: &str, v: bool) -> &mut Self {
        self.u64(name, u64::from(v))
    }

    pub(crate) fn finish(&self) -> u64 {
        self.h
    }
}

/// Hashes the sweep-defining inputs (base configuration + simulation
/// length) into the structural fingerprint keying both the checkpoint
/// journal and the persistent result store.
///
/// Every field is hashed **explicitly, by name and value** — never via a
/// `Debug` rendering, whose bytes change under derive or field-order
/// refactors and silently invalidate (or worse, collide) every stored
/// result. The hash is pinned by a golden test vector
/// (`fingerprint_matches_pinned_vector`), so an accidental change to its
/// inputs or mixing is caught in review, and a deliberate one must bump
/// [`VERSION`].
///
/// Three kinds of input are deliberately **excluded**:
///
/// - `base.seed` — the seed is a separate axis of the result key (every
///   journal/store record carries its own), so sweeps over many seeds
///   share one fingerprint;
/// - `check_invariants` and `livelock_cycle_budget` — supervision knobs
///   that can abort a run but can never alter a *completed* result;
/// - nothing else: all remaining config fields shape simulated behavior.
///
/// One knob is **included**: an armed `CMPSIM_CHAOS` plan
/// changes simulated results, so its seed and rate are folded in —
/// results computed under fault injection can never be served to (or
/// poisoned by) a clean sweep.
pub fn fingerprint(base: &SystemConfig, len: SimLength) -> u64 {
    let mut h = StructHash::new();
    h.u64("schema", VERSION);
    h.u64("cores", u64::from(base.cores));
    h.u64("clock_ghz", u64::from(base.clock_ghz));
    h.u64("issue_width", base.issue_width);
    h.u64("rob_size", base.rob_size);
    h.u64("mshrs_per_core", base.mshrs_per_core as u64);
    h.u64("l1_bytes", base.l1_bytes as u64);
    h.u64("l1_ways", base.l1_ways as u64);
    h.u64("l1_latency", base.l1_latency);
    h.u64("l2_bytes", base.l2_bytes as u64);
    h.u64("l2_banks", base.l2_banks as u64);
    h.u64("l2_latency", base.l2_latency);
    h.u64("decompression_latency", base.decompression_latency);
    h.u64(
        "codec",
        match base.codec {
            cmpsim_fpc::CodecKind::Fpc => 0,
            cmpsim_fpc::CodecKind::Bdi => 1,
            cmpsim_fpc::CodecKind::Zca => 2,
        },
    );
    h.u64("l1_to_l2_latency", base.l1_to_l2_latency);
    h.u64("probe_latency", base.probe_latency);
    h.u64("mem_latency", base.mem_latency);
    match base.link {
        LinkBandwidth::Infinite => h.u64("link.infinite", 1),
        LinkBandwidth::GBps(g) => h.u64("link.gbps", u64::from(g)),
    };
    h.bool("cache_compression", base.cache_compression);
    h.bool("adaptive_compression", base.adaptive_compression);
    h.bool("link_compression", base.link_compression);
    h.u64(
        "prefetch",
        match base.prefetch {
            PrefetchMode::Off => 0,
            PrefetchMode::Stride => 1,
            PrefetchMode::Adaptive => 2,
        },
    );
    h.u64("l2_prefetch_degree", u64::from(base.l2_prefetch_degree));
    h.u64("warmup", len.warmup);
    h.u64("measure", len.measure);
    if let Some(plan) = knobs().chaos {
        h.u64("chaos.seed", plan.seed());
        h.u64("chaos.rate.bits", plan.rate().to_bits());
    }
    h.finish()
}

// ------------------------------------------------------------- encoding

/// A completed cell's record, unsealed (the [`SealedLog::append`] shape).
pub(crate) fn entry_body(workload: &str, variant: Variant, seed: u64, r: &RunResult) -> String {
    debug_assert!(!workload.contains(['"', '\\']), "workload names are plain identifiers");
    let mut s = format!(
        "{{\"workload\":\"{workload}\",\"variant\":\"{}\",\"seed\":{seed}",
        variant.label()
    );
    for (key, _, slot) in record_fields(&mut r.clone()) {
        s.push_str(&format!(",\"{key}\":{}", slot.get()));
    }
    s
}

#[cfg(test)]
pub(crate) fn encode_entry(e: &JournalEntry) -> String {
    flatjson::seal(entry_body(&e.workload, e.variant, e.seed, &e.result))
}

/// A cell failure's record, unsealed.
pub(crate) fn failure_body(workload: &str, variant: Variant, seed: u64, error: &str) -> String {
    // The flat parser supports no escapes, so sanitize the free-form
    // error text into the representable subset.
    let sane: String = error
        .chars()
        .take(200)
        .map(|c| match c {
            '"' | '\\' => '\'',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect();
    format!(
        "{{\"failure\":\"{workload}\",\"variant\":\"{}\",\"seed\":{seed},\"error\":\"{sane}\"",
        variant.label()
    )
}

/// One checksum-verified journal record.
#[derive(Debug)]
pub(crate) enum Decoded {
    Entry(Box<JournalEntry>),
    Failure { workload: String, variant: Variant, seed: u64 },
}

/// Decodes one sealed journal (or store) line.
pub(crate) fn decode_line(line: &str) -> Result<Decoded, String> {
    decode_fields(flatjson::unseal(line)?)
}

/// Decodes a record's fields, as the sealed log's reader returns them.
fn decode_fields(fields: Vec<(String, JsonVal)>) -> Result<Decoded, String> {
    let map: HashMap<String, JsonVal> = fields.into_iter().collect();
    if map.contains_key("failure") {
        let (workload, variant, seed) =
            cell_of(&map, "failure").ok_or_else(|| "malformed failure record".to_string())?;
        return Ok(Decoded::Failure { workload, variant, seed });
    }
    entry_from(&map)
        .map(|e| Decoded::Entry(Box::new(e)))
        .ok_or_else(|| "missing or malformed cell field".to_string())
}

#[cfg(test)]
fn decode_entry(line: &str) -> Option<JournalEntry> {
    entry_from(&flatjson::parse_flat(line)?.into_iter().collect())
}

/// The `(workload, variant, seed)` a record names, with the workload
/// under the key `name`.
fn cell_of(map: &HashMap<String, JsonVal>, name: &str) -> Option<(String, Variant, u64)> {
    let workload = map.get(name)?.as_str()?.to_string();
    let variant = variant_of(map.get("variant")?.as_str()?)?;
    Some((workload, variant, map.get("seed")?.as_u64()?))
}

/// The cell a completed cell's record names, read from the three
/// leading fields [`entry_body`] writes without parsing the rest. The
/// store indexes its data log by it; [`decode_line`] reads the cell
/// again when the record itself is read.
pub(crate) fn entry_cell(line: &str) -> Option<(&str, Variant, u64)> {
    let rest = line.strip_prefix("{\"workload\":\"")?;
    let (workload, rest) = rest.split_once("\",\"variant\":\"")?;
    let (label, rest) = rest.split_once("\",\"seed\":")?;
    let seed = rest.split(',').next()?.parse().ok()?;
    Some((workload, variant_of(label)?, seed))
}

fn variant_of(label: &str) -> Option<Variant> {
    Variant::all().into_iter().find(|v| v.label() == label)
}

fn entry_from(map: &HashMap<String, JsonVal>) -> Option<JournalEntry> {
    let (workload, variant, seed) = cell_of(map, "workload")?;
    let mut result = RunResult::default();
    for (key, _, slot) in record_fields(&mut result) {
        slot.set(map.get(key)?.as_u64()?)?;
    }
    Some(JournalEntry { workload, variant, seed, result })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimStats;

    /// A result with a distinct value in every field, set by name and
    /// never through `record_fields`, so a round-trip detects a field
    /// the table omits or swaps.
    fn distinct_result() -> RunResult {
        let mut r = RunResult {
            stats: SimStats::default(),
            cycles: 1,
            clock_ghz: 2,
            events: 101,
            retired: 102,
            host_nanos: 103,
        };
        let mut next = 3u64;
        let mut n = || {
            next += 1;
            next
        };
        let s = &mut r.stats;
        s.instructions = n();
        for l in [&mut s.l1i, &mut s.l1d, &mut s.l2] {
            l.accesses = n();
            l.hits = n();
            l.demand_misses = n();
            l.prefetch_hits = n();
            l.prefetches_issued = n();
            l.prefetch_fills = n();
            l.useless_prefetch_evictions = n();
        }
        s.l2_compressed_hits = n();
        s.l2_hit_latency_sum = n();
        s.l2_hit_latency_count = n();
        s.l2_victim_tag_hits = n();
        s.harmful_prefetch_detections = n();
        s.capacity_ratio_sum = 0.1 + 0.2; // not exactly representable: bit test
        s.capacity_ratio_samples = n();
        s.link.total_bytes = n();
        s.link.data_bytes = n();
        s.link.prefetch_bytes = n();
        s.link.messages = n();
        s.link.queue_delay_cycles = n();
        s.link.busy_cycles = n();
        s.link.dropped_messages = n();
        s.link.corrupted_messages = n();
        s.mem_reads = n();
        s.mem_writes = n();
        s.coherence.invalidations = n();
        s.coherence.recalls = n();
        s.coherence.upgrades = n();
        s.coherence.inclusion_recalls = n();
        s.dropped_prefetches = n();
        s.faults.codec_faults_injected = n();
        s.faults.codec_faults_detected = n();
        s.faults.fault_recoveries = n();
        s.faults.lines_quarantined = n();
        s.faults.link_faults_injected = n();
        s.faults.link_retransmits = n();
        s.faults.mem_stall_bursts = n();
        s.faults.mem_stall_cycles = n();
        s.faults.dir_messages_lost = n();
        s.faults.dir_retries = n();
        r
    }

    #[test]
    fn journal_roundtrip_is_bit_exact() {
        let e = JournalEntry {
            workload: "apsi".into(),
            variant: Variant::AdaptivePrefetchCompression,
            seed: 47,
            result: distinct_result(),
        };
        let line = encode_entry(&e);
        let back = decode_entry(&line).expect("decodes");
        assert_eq!(back, e);
        assert_eq!(
            back.result.stats.capacity_ratio_sum.to_bits(),
            e.result.stats.capacity_ratio_sum.to_bits()
        );
        // `==` ignores wall-clock by design, so check it separately.
        assert_eq!(back.result.host_nanos, e.result.host_nanos);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(decode_entry("").is_none());
        assert!(decode_entry("{").is_none());
        assert!(decode_entry("{\"workload\":\"apsi\"}").is_none());
        assert!(decode_entry("not json at all").is_none());
        let good = encode_entry(&JournalEntry {
            workload: "w".into(),
            variant: Variant::Base,
            seed: 1,
            result: distinct_result(),
        });
        assert!(decode_entry(&good[..good.len() - 5]).is_none(), "truncation detected");
    }

    #[test]
    fn fingerprint_distinguishes_configs_and_lengths() {
        let a = SystemConfig::paper_default(2);
        let b = SystemConfig::paper_default(4);
        let l1 = SimLength { warmup: 10, measure: 20 };
        let l2 = SimLength { warmup: 10, measure: 21 };
        assert_ne!(fingerprint(&a, l1), fingerprint(&b, l1));
        assert_ne!(fingerprint(&a, l1), fingerprint(&a, l2));
        assert_eq!(fingerprint(&a, l1), fingerprint(&a.clone(), l1));
    }

    /// The structural fingerprint is pinned to a golden vector: it may
    /// only change together with a deliberate [`VERSION`] bump. The
    /// `Debug`-rendering hash this replaced fails here by construction —
    /// its value moved under every derive or field-order refactor.
    #[test]
    fn fingerprint_matches_pinned_vector() {
        let base = SystemConfig::paper_default(8);
        let len = SimLength::standard();
        assert_eq!(
            fingerprint(&base, len),
            0xee03_b1a3_bbb3_75c3,
            "structural fingerprint drifted: either an input field was \
             added/removed/re-mixed accidentally, or this is a deliberate \
             format change that must bump journal::VERSION and re-pin"
        );
    }

    /// Regression: the fingerprint must be a function of fields that
    /// shape simulated results — not of the seed (a separate key axis)
    /// and not of supervision knobs that can only abort a run. The
    /// pre-v4 `Debug` hash folded all three in.
    #[test]
    fn fingerprint_ignores_seed_and_supervision_knobs() {
        let base = SystemConfig::paper_default(4);
        let len = SimLength { warmup: 10, measure: 20 };
        let fp = fingerprint(&base, len);
        assert_eq!(fp, fingerprint(&base.clone().with_seed(99), len));
        assert_eq!(fp, fingerprint(&base.clone().with_invariant_checks(true), len));
        assert_eq!(fp, fingerprint(&base.clone().with_livelock_budget(1), len));
    }

    #[test]
    fn fingerprint_separates_every_structural_axis() {
        let base = SystemConfig::paper_default(4);
        let len = SimLength { warmup: 10, measure: 20 };
        let fp = fingerprint(&base, len);
        let variants: Vec<SystemConfig> = vec![
            SystemConfig { l2_bytes: base.l2_bytes * 2, ..base.clone() },
            base.clone().with_codec(cmpsim_fpc::CodecKind::Bdi),
            base.clone().with_link(LinkBandwidth::Infinite),
            base.clone().with_link(LinkBandwidth::GBps(40)),
            base.clone().with_compression(true, true),
            base.clone().with_prefetch(PrefetchMode::Adaptive),
            SystemConfig { mem_latency: 401, ..base.clone() },
            SystemConfig { l2_prefetch_degree: 24, ..base.clone() },
        ];
        for (i, cfg) in variants.iter().enumerate() {
            assert_ne!(fp, fingerprint(cfg, len), "variant {i} must change the fingerprint");
        }
    }

    #[test]
    fn load_append_and_mismatch_rotation() {
        let dir = std::env::temp_dir().join(format!(
            "cmpsim-journal-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("grid.jsonl");

        let j = Journal::new(&path, 0xdead);
        assert_eq!(j.load_or_reset().unwrap(), vec![], "missing file is empty");

        let e = JournalEntry {
            workload: "apsi".into(),
            variant: Variant::Prefetch,
            seed: 11,
            result: distinct_result(),
        };
        j.append(&e).unwrap();
        j.append(&JournalEntry { workload: "mgrid".into(), ..e.clone() }).unwrap();
        let back = j.load_or_reset().unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], e);
        assert_eq!(back[1].workload, "mgrid");

        // A journal written under another fingerprint yields nothing for
        // *this* sweep but survives on disk for its own.
        let original = fs::read_to_string(&path).unwrap();
        let other = Journal::new(&path, 0xbeef);
        assert_eq!(other.load_or_reset().unwrap(), vec![]);
        assert!(!path.exists(), "mismatched journal is moved out of the way");
        let stale = dir.join(format!("grid.jsonl.stale.{:016x}", 0xdead_u64));
        assert_eq!(
            fs::read_to_string(&stale).unwrap(),
            original,
            "rotation must preserve the other sweep's completed cells byte-for-byte"
        );
        // The original sweep can be pointed at the rotated file and
        // recovers every cell.
        let recovered = Journal::new(&stale, 0xdead).load_or_reset().unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0], e);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression for the destructive pre-fix behavior: resuming sweep B
    /// over sweep A's journal used to `remove_file` A's completed cells.
    /// Now A's work must survive a full B lifecycle (load + append).
    #[test]
    fn foreign_sweep_resume_does_not_destroy_completed_cells() {
        let dir = std::env::temp_dir()
            .join(format!("cmpsim-journal-stale-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("grid.jsonl");
        let a = Journal::new(&path, 0xa);
        let cell = JournalEntry {
            workload: "apsi".into(),
            variant: Variant::Prefetch,
            seed: 11,
            result: distinct_result(),
        };
        a.append(&cell).unwrap();
        let a_bytes = fs::read_to_string(&path).unwrap();

        // Sweep B resumes over the same path, finds nothing, and runs a
        // full journaled sweep of its own.
        let b = Journal::new(&path, 0xb);
        assert_eq!(b.load_or_reset().unwrap(), vec![], "B starts empty");
        b.append(&JournalEntry { workload: "mgrid".into(), ..cell.clone() }).unwrap();
        assert_eq!(b.load_or_reset().unwrap().len(), 1, "B journals independently");

        // A's cells are intact in the rotated file.
        let stale = dir.join(format!("grid.jsonl.stale.{:016x}", 0xa_u64));
        assert_eq!(fs::read_to_string(&stale).unwrap(), a_bytes);
        assert_eq!(Journal::new(&stale, 0xa).load_or_reset().unwrap(), vec![cell]);

        // An *empty* mismatched file carries nothing worth rotating.
        let empty = dir.join("empty.jsonl");
        fs::write(&empty, "").unwrap();
        assert_eq!(Journal::new(&empty, 0xc).load_or_reset().unwrap(), vec![]);
        assert!(!empty.exists(), "empty files are still removed outright");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_carry_verifiable_checksums() {
        let e = JournalEntry {
            workload: "apsi".into(),
            variant: Variant::Base,
            seed: 3,
            result: distinct_result(),
        };
        let line = encode_entry(&e);
        assert!(check_seal(&line).is_ok());
        assert!(matches!(decode_line(&line), Ok(Decoded::Entry(back)) if *back == e));
        // Flip one digit in the middle of the record: the crc catches it.
        let mangled = line.replacen(":1,", ":7,", 1);
        assert_ne!(mangled, line);
        let err = decode_line(&mangled).unwrap_err();
        assert!(err.contains("crc mismatch"), "got: {err}");
        // Strip the crc entirely: also rejected.
        assert!(decode_line("{\"workload\":\"apsi\"}").unwrap_err().contains("missing crc"));
    }

    #[test]
    fn failure_records_accumulate_into_quarantine() {
        let dir = std::env::temp_dir()
            .join(format!("cmpsim-journal-quar-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let j = Journal::new(dir.join("grid.jsonl"), 9);
        j.append_failure("apsi", Variant::Prefetch, 11, "livelock at cycle 5:\n  core 0")
            .unwrap();
        let snap = j.load().unwrap();
        assert_eq!(snap.failures[&("apsi".to_string(), Variant::Prefetch, 11)], 1);
        assert!(snap.quarantined("apsi", Variant::Prefetch, 11).is_none(), "one strike left");
        j.append_failure("apsi", Variant::Prefetch, 11, "livelock again").unwrap();
        let snap = j.load().unwrap();
        assert_eq!(snap.quarantined("apsi", Variant::Prefetch, 11), Some(2));
        assert!(snap.quarantined("apsi", Variant::Base, 11).is_none(), "per-variant");
        assert!(snap.quarantined("apsi", Variant::Prefetch, 12).is_none(), "per-seed");
        assert!(snap.skipped.is_empty(), "failure records decode cleanly");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_line_is_skipped_with_line_number() {
        let dir = std::env::temp_dir()
            .join(format!("cmpsim-journal-crc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("grid.jsonl");
        let j = Journal::new(&path, 5);
        let mk = |w: &str| JournalEntry {
            workload: w.into(),
            variant: Variant::Base,
            seed: 1,
            result: distinct_result(),
        };
        j.append(&mk("apsi")).unwrap();
        j.append(&mk("mgrid")).unwrap();
        // Corrupt one digit of the first cell record (line 2), in place.
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = lines[1].replacen(":1,", ":7,", 1);
        fs::write(&path, lines.join("\n") + "\n").unwrap();
        let snap = j.load().unwrap();
        assert_eq!(snap.entries.len(), 1, "intact cell survives");
        assert_eq!(snap.entries[0].workload, "mgrid");
        assert_eq!(snap.skipped.len(), 1);
        assert_eq!(snap.skipped[0].0, 2, "1-based line number");
        assert!(snap.skipped[0].1.contains("crc mismatch"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_physically_truncated() {
        let dir = std::env::temp_dir()
            .join(format!("cmpsim-journal-tail-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("grid.jsonl");
        let j = Journal::new(&path, 5);
        let e = JournalEntry {
            workload: "apsi".into(),
            variant: Variant::Base,
            seed: 1,
            result: distinct_result(),
        };
        j.append(&e).unwrap();
        let intact = fs::read_to_string(&path).unwrap();
        let mut torn = intact.clone();
        torn.push_str("{\"workload\":\"mgr"); // kill mid-append, no newline
        fs::write(&path, &torn).unwrap();
        let snap = j.load().unwrap();
        assert!(snap.repaired_tail);
        assert_eq!(snap.entries, vec![e.clone()]);
        assert_eq!(fs::read_to_string(&path).unwrap(), intact, "file repaired on disk");
        // A fresh append after repair produces a clean, loadable journal.
        j.append(&JournalEntry { workload: "mgrid".into(), ..e }).unwrap();
        let snap = j.load().unwrap();
        assert!(!snap.repaired_tail);
        assert_eq!(snap.entries.len(), 2);
        assert!(snap.skipped.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_line_skips_only_that_cell() {
        let dir = std::env::temp_dir().join(format!(
            "cmpsim-journal-trunc-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("grid.jsonl");
        let j = Journal::new(&path, 7);
        let e = JournalEntry {
            workload: "apsi".into(),
            variant: Variant::Base,
            seed: 1,
            result: distinct_result(),
        };
        j.append(&e).unwrap();
        // Simulate a kill mid-write of the second cell.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"workload\":\"mgr");
        fs::write(&path, text).unwrap();
        let back = j.load_or_reset().unwrap();
        assert_eq!(back, vec![e]);
        let _ = fs::remove_dir_all(&dir);
    }
}
